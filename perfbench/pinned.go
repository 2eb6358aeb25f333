package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digests.json pins the output digest of each workload at the baseline
// seed and the held-out seed (README.md, "Correctness"), keyed by seed.
// Other seeds are not pinned; their runs are checked pass against pass
// only.
//
//go:embed digests.json
var pinnedJSON []byte

// pinnedDigest returns the pinned digest of workload at seed, if any.
func pinnedDigest(workload string, seed uint64) (string, bool, error) {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	want, ok := pinned[workload][fmt.Sprint(seed)]
	return want, ok, nil
}

// checkPinned compares a first pass's digest with the pin at seed. A
// mismatch counts every run of the pass as failed.
func checkPinned(rep *report, workload string, seed uint64, got string, runs int) {
	want, ok, err := pinnedDigest(workload, seed)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	if !ok || want == got {
		return
	}
	rep.fail("%s at seed %d: digest %s, pinned %s", workload, seed, got, want)
	rep.failed += runs - 1
}
