package service

import (
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
)

// TestQueueBackpressure: admission must refuse, never block, past depth.
func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(2)
	a, b, c := &Job{ID: "a"}, &Job{ID: "b"}, &Job{ID: "c"}
	if !q.TryEnqueue(a) || !q.TryEnqueue(b) {
		t.Fatal("enqueue within depth refused")
	}
	if q.TryEnqueue(c) {
		t.Fatal("enqueue past depth accepted")
	}
	if q.Depth() != 2 || q.Cap() != 2 {
		t.Fatalf("depth/cap = %d/%d, want 2/2", q.Depth(), q.Cap())
	}
}

// TestQueueCloseDrains: Close stops intake but the backlog stays readable,
// and the channel terminates once drained.
func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(2)
	q.TryEnqueue(&Job{ID: "a"})
	q.TryEnqueue(&Job{ID: "b"})
	q.Close()
	q.Close() // idempotent
	if q.TryEnqueue(&Job{ID: "c"}) {
		t.Fatal("enqueue after Close accepted")
	}
	var got []string
	for j := range q.Chan() {
		got = append(got, j.ID)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("drained %v, want [a b] in FIFO order", got)
	}
}

// TestStoreLRUEviction: capacity 2, touching "a" must make "b" the victim.
func TestStoreLRUEviction(t *testing.T) {
	st := NewStore(2)
	st.Put("a", &RunResult{Workload: "a"})
	st.Put("b", &RunResult{Workload: "b"})
	if _, ok := st.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	st.Put("c", &RunResult{Workload: "c"})
	if _, ok := st.Get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if _, ok := st.Get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if _, ok := st.Get("c"); !ok {
		t.Error("c missing after insert")
	}
	if st.Len() != 2 {
		t.Errorf("len = %d, want 2", st.Len())
	}
	if st.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions())
	}
}

// TestStorePutRefreshesExisting: re-putting a key must not grow the store
// or evict anything.
func TestStorePutRefreshesExisting(t *testing.T) {
	st := NewStore(2)
	st.Put("a", &RunResult{Seed: 1})
	st.Put("b", &RunResult{})
	st.Put("a", &RunResult{Seed: 2})
	if st.Len() != 2 || st.Evictions() != 0 {
		t.Fatalf("len/evictions = %d/%d, want 2/0", st.Len(), st.Evictions())
	}
	res, _ := st.Get("a")
	if res.Seed != 2 {
		t.Errorf("refresh kept stale value (seed %d)", res.Seed)
	}
}

// TestSpecKeyFingerprintsSizing: equal specs with different sizing must
// occupy different store keys; equal effective requests must collide.
func TestSpecKeyFingerprintsSizing(t *testing.T) {
	mk := func(acc, seed uint64) *RunRequest {
		r := &RunRequest{Spec: spec.Spec{Workload: "milc", Policy: "baseline", Accesses: acc, Seed: seed}}
		r.normalize(Config{DefaultAccesses: 1000, DefaultSeed: 42})
		return r
	}
	_, k1, err := specOf(mk(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, k2, _ := specOf(mk(2000, 1))
	_, k3, _ := specOf(mk(1000, 2))
	_, k4, _ := specOf(mk(1000, 1))
	if k1 == k2 || k1 == k3 {
		t.Errorf("sizing not fingerprinted: %q vs %q vs %q", k1, k2, k3)
	}
	if k1 != k4 {
		t.Errorf("equal requests got different keys: %q vs %q", k1, k4)
	}
}

// TestSpecOfRejectsBadRequests covers the validation branches reachable
// over the wire.
func TestSpecOfRejectsBadRequests(t *testing.T) {
	cases := []spec.Spec{
		{Workload: "nonesuch", Policy: "baseline"},
		{Workload: "milc", Policy: "nonesuch"},
		{Workload: "milc", Policy: "baseline", MixWith: "nonesuch"},
		{Workload: "milc", Policy: "slip", BinBits: 12},
		{Workload: "milc", Policy: "baseline", Tech: "7nm"},
		{Workload: "milc", Policy: "baseline", DRAM: &spec.DRAMSpec{PJPerBit: 11}},
		// Cache sizes the cache constructor would panic on, deep in a worker.
		{Workload: "milc", Policy: "slip", L2Bytes: 3},
		{Workload: "milc", Policy: "baseline", L3Bytes: 1_000_000},
		{Workload: "milc", Policy: "baseline", L2Bytes: 512},
		// Core counts past the address map: core 15's region would overlap
		// the page profiles, and 100000 cores would exhaust memory.
		{Workload: "milc", Policy: "baseline", Cores: hier.MaxCores + 1},
		{Workload: "milc", Policy: "baseline", Cores: 100_000},
	}
	for i, c := range cases {
		r := RunRequest{Spec: c}
		r.normalize(Config{DefaultAccesses: 1000, DefaultSeed: 42})
		if _, _, err := specOf(&r); err == nil {
			t.Errorf("case %d (%+v): no error", i, r)
		}
	}
}

// TestSpecOfCanonicalizesAliases: the store key must be alias-blind — a
// request spelled with a policy alias or explicit defaults lands on the
// same hash as its canonical spelling.
func TestSpecOfCanonicalizesAliases(t *testing.T) {
	cfg := Config{DefaultAccesses: 1000, DefaultSeed: 42}
	a := RunRequest{Spec: spec.Spec{Workload: "milc", Policy: "slip-abp", BinBits: 3, UseRRIP: true}}
	b := RunRequest{Spec: spec.Spec{Workload: "milc", Policy: "slip+abp", BinBits: 3, UseRRIP: true, Cores: 1}}
	a.normalize(cfg)
	b.normalize(cfg)
	ca, ka, err := specOf(&a)
	if err != nil {
		t.Fatal(err)
	}
	cb, kb, err := specOf(&b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("alias spelling split the key space: %q vs %q", ka, kb)
	}
	if ca.Policy != "slip+abp" || cb.Policy != "slip+abp" {
		t.Errorf("canonical policy = %q/%q, want slip+abp", ca.Policy, cb.Policy)
	}
	if !strings.HasPrefix(ka, "s1:") {
		t.Errorf("key %q is not a spec hash", ka)
	}
	if v := ca.Variant(); v != "bits3+rrip" {
		t.Errorf("variant %q, want bits3+rrip", v)
	}
	cfgOut, err := ca.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfgOut.BinBits != 3 || !cfgOut.UseRRIP || cfgOut.DisableSampling {
		t.Errorf("built config %+v does not reflect the request", cfgOut)
	}
}

// TestMixRequestWithKnobs: config knobs now compose with mix runs (the
// generalized engine simulates any spec), and the mix key differs from the
// single-core keys.
func TestMixRequestWithKnobs(t *testing.T) {
	cfg := Config{DefaultAccesses: 1000, DefaultSeed: 42}
	r := RunRequest{Spec: spec.Spec{Workload: "milc", MixWith: "sphinx3", Policy: "slip+abp", BinBits: 3}}
	r.normalize(cfg)
	c, key, err := specOf(&r)
	if err != nil {
		t.Fatalf("mix with knobs rejected: %v", err)
	}
	if c.Cores != 2 {
		t.Errorf("canonical cores = %d, want 2", c.Cores)
	}
	single := RunRequest{Spec: spec.Spec{Workload: "milc", Policy: "slip+abp", BinBits: 3}}
	single.normalize(cfg)
	_, ks, _ := specOf(&single)
	if key == ks {
		t.Errorf("mix and single-core requests share key %q", key)
	}
}
