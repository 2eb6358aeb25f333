package experiments

import (
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
)

// TestSpecKeyedRunsEquivalent is the refactor's equivalence guarantee: a
// run addressed implicitly (suite sizing stamped into an unsized spec) and
// the same run addressed by a fully explicit spec must land on one memo
// key and therefore one simulated system — the object pointers are equal.
// It also cross-checks the engine memo key against spec.Hash directly,
// which is the contract the slipd result store relies on.
func TestSpecKeyedRunsEquivalent(t *testing.T) {
	opts := Options{
		Accesses: 40_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc"}, Parallelism: 1,
	}
	s := NewSuite(opts)

	implicit := spec.Single("milc", hier.SLIPABP)
	w := opts.Warmup
	explicit := spec.Spec{
		Workload: "milc", Policy: "slip-abp", // alias on purpose
		Accesses: opts.Accesses, Warmup: &w, Seed: opts.Seed,
	}

	ki, ke := s.KeyFor(implicit), s.KeyFor(explicit)
	if ki != ke {
		t.Fatalf("implicit key %s != explicit key %s", ki, ke)
	}
	if direct := explicit.MustHash(); direct != ki {
		t.Fatalf("engine key %s != spec.Hash %s: store and memo keys diverged", ki, direct)
	}

	a := s.Run("milc", hier.SLIPABP)
	b := s.RunS(explicit)
	if a != b {
		t.Fatal("explicit spec re-simulated a memoized run")
	}
	if n := s.runs.Len(); n != 1 {
		t.Fatalf("memo holds %d runs, want exactly one", n)
	}

	// A spec sized differently from the suite defaults must get its own
	// key and its own simulation.
	resized := explicit
	resized.Accesses = 10_000
	if s.KeyFor(resized) == ki {
		t.Fatal("resized spec shares the default key")
	}
	if c := s.RunS(resized); c == a {
		t.Fatal("differently sized runs returned the same system")
	}
}

// TestResolveSpecRejectsInvalid: ResolveSpec must surface validation
// errors instead of hashing garbage.
func TestResolveSpecRejectsInvalid(t *testing.T) {
	s := smallSuite()
	if _, err := s.ResolveSpec(spec.Spec{Workload: "milc", Policy: "mru"}); err == nil {
		t.Error("unknown policy resolved")
	}
	if _, err := s.ResolveSpec(spec.Spec{Policy: "baseline"}); err == nil {
		t.Error("missing workload resolved")
	}
}
