package train

import (
	"reflect"
	"testing"

	"hetkg/internal/dataset"
)

// TestResolveIsIdempotent: resolving a resolved spec changes nothing, so
// core's derivation and Validate may both resolve the same run. Unbounded
// staleness and validation off keep their negative spelling through it.
func TestResolveIsIdempotent(t *testing.T) {
	for _, rc := range []RunConfig{
		{},
		defaultRun,
		{CacheSyncEvery: -1},
		{EvalEvery: -1},
		{Scale: dataset.Tiny, CkptDir: "snapshots"},
	} {
		once := rc
		once.Resolve()
		twice := once
		twice.Resolve()
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("resolving %+v again changed\n%+v\nto\n%+v", rc, once, twice)
		}
		if rc.CacheSyncEvery < 0 && once.CacheSyncEvery != rc.CacheSyncEvery {
			t.Errorf("staleness %d resolved to %d", rc.CacheSyncEvery, once.CacheSyncEvery)
		}
		if rc.EvalEvery < 0 && once.EvalEvery != rc.EvalEvery {
			t.Errorf("evalEvery %d resolved to %d", rc.EvalEvery, once.EvalEvery)
		}
	}
}
