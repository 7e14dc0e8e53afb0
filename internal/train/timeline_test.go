package train

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"hetkg/internal/metrics"
)

// timelineRun trains HET-KG on the small test workload with a timeline
// attached and returns the parsed timeline.
func timelineRun(t *testing.T) *metrics.TimelineRun {
	t.Helper()
	cfg := testConfig(t, 2)
	cfg.EvalEvery = -1
	cfg.Parallelism = 1
	cfg.Dataset = "traintest"
	cfg.TimelineEvery = 2
	cfg.TimelinePath = filepath.Join(t.TempDir(), "timeline.jsonl")
	res, err := cfg.run()
	if err != nil {
		t.Fatalf("HET-KG: %v", err)
	}
	if res.Metrics == nil {
		t.Fatal("Result.Metrics is nil")
	}
	run, err := metrics.ReadTimelineFile(cfg.TimelinePath)
	if err != nil {
		t.Fatalf("ReadTimeline: %v", err)
	}
	return run
}

// TestTimelineEmission checks a training run emits a well-formed timeline:
// enough records, and the last interval record carrying every headline
// series — loss, cache hit ratio, staleness quantiles, PS byte counts,
// simulated wire time — plus wall-clock readings in the separate wall object.
func TestTimelineEmission(t *testing.T) {
	run := timelineRun(t)
	if run.Header.System != "HET-KG-C" || run.Header.Dataset != "traintest" || run.Header.Every != 2 {
		t.Fatalf("header = %+v", run.Header)
	}
	if len(run.Records) < 10 {
		t.Fatalf("got %d records, want >= 10", len(run.Records))
	}
	if run.Records[len(run.Records)-1].EpochEnd == nil {
		t.Error("the run's last record is not its last epoch's")
	}
	var last metrics.TimelineRecord
	for _, rec := range run.Records {
		if rec.EpochEnd == nil {
			last = rec
		}
	}
	if last.Loss <= 0 {
		t.Errorf("last record loss = %v", last.Loss)
	}
	if v := last.Metrics[metrics.MCacheHitRatio]; v.Kind != metrics.KindGauge || v.Value <= 0 {
		t.Errorf("cache.hit_ratio = %+v", v)
	}
	if v := last.Metrics[metrics.MCacheStaleness]; v.Kind != metrics.KindHistogram ||
		v.Count == 0 || v.Quantiles == nil {
		t.Errorf("cache.staleness = %+v", v)
	}
	if v := last.Metrics[metrics.MPSBytesTx]; v.Count <= 0 {
		t.Errorf("ps.bytes_tx = %+v", v)
	}
	if v := last.Metrics[metrics.MPSBytesRx]; v.Count <= 0 {
		t.Errorf("ps.bytes_rx = %+v", v)
	}
	if v := last.Metrics[metrics.MNetSimWire]; v.Count <= 0 {
		t.Errorf("net.sim_wire_ns = %+v", v)
	}
	if v := last.Metrics[metrics.MTrainIterations]; v.Count <= 0 {
		t.Errorf("train.iterations = %+v", v)
	}
	if v := last.Metrics[metrics.MPSServerPulls]; v.Count <= 0 {
		t.Errorf("ps.server.pulls = %+v", v)
	}
	if last.Wall == nil || last.Wall.ElapsedMS <= 0 {
		t.Errorf("wall = %+v", last.Wall)
	}
	// Timers must never leak into the deterministic snapshot.
	if _, ok := last.Metrics[metrics.MTrainCompWall]; ok {
		t.Error("wall-clock timer leaked into a timeline record")
	}
}

// TestTimelineDeterministic re-runs the same configuration and requires the
// two timelines to be bit-identical once the wall-clock object is stripped:
// the paper-reproduction contract is that every value outside "wall" — the
// interval records' metrics and the epoch records' summaries alike — derives
// from deterministic quantities only.
func TestTimelineDeterministic(t *testing.T) {
	strip := func(run *metrics.TimelineRun) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, rec := range run.Records {
			rec.Wall = nil
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	a := timelineRun(t)
	b := timelineRun(t)
	if !bytes.Equal(strip(a), strip(b)) {
		t.Fatal("timelines differ between identical runs")
	}
}

// TestTimelineEpochRecords: every trainer — the static PS systems, PBG and
// the elastic driver — writes a timeline with a header and exactly one epoch
// record per Result.Epochs entry, carrying that entry's loss, MRR and hit
// ratio. PBG's communication time is derived from measured computation, so
// it alone reports comm_ms under wall.
func TestTimelineEpochRecords(t *testing.T) {
	for _, c := range []struct {
		system  System
		elastic bool
	}{
		{SystemDGLKE, false},
		{SystemHETKGD, false},
		{SystemPBG, false},
		{SystemHETKGC, true},
	} {
		name := string(c.system)
		if c.elastic {
			name += "/elastic"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, 2)
			cfg.Dataset = "traintest"
			cfg.TimelinePath = filepath.Join(t.TempDir(), "timeline.jsonl")
			cfg.System = c.system
			if c.system == SystemHETKGD {
				cfg.CachePrefetchD = 8
			}
			if c.elastic {
				cfg.hooks.coordinator, cfg.hooks.label = elasticMembership(t, 2), "solo"
			}
			res, err := cfg.run()
			if err != nil {
				t.Fatal(err)
			}
			run, err := metrics.ReadTimelineFile(cfg.TimelinePath)
			if err != nil {
				t.Fatalf("ReadTimeline: %v", err)
			}
			if run.Header.System != name || run.Header.Dataset != "traintest" || run.Header.Seed != cfg.Seed {
				t.Errorf("header = %+v", run.Header)
			}
			var epochs []metrics.TimelineRecord
			for _, rec := range run.Records {
				if rec.EpochEnd != nil {
					epochs = append(epochs, rec)
				}
			}
			if len(epochs) != len(res.Epochs) || len(epochs) != cfg.Epochs {
				t.Fatalf("%d epoch records for %d result epochs of %d", len(epochs), len(res.Epochs), cfg.Epochs)
			}
			for i, rec := range epochs {
				st, end := res.Epochs[i], rec.EpochEnd
				if rec.Epoch != st.Epoch || rec.Loss != st.Loss || end.MRR != st.MRR || end.HitRatio != st.HitRatio {
					t.Errorf("epoch record %d = %+v %+v, want %+v", i, rec, *end, st)
				}
				if rec.Wall == nil || rec.Wall.CompMS != ms(st.Comp) || rec.Wall.CumMS != ms(st.CumTime) {
					t.Errorf("epoch record %d wall = %+v, want comp %v cum %v", i, rec.Wall, st.Comp, st.CumTime)
				}
				det, wall := end.CommMS, rec.Wall.CommMS
				if c.system == SystemPBG {
					det, wall = wall, det
				}
				if det != ms(st.Comm) || wall != 0 {
					t.Errorf("epoch record %d comm_ms = %v (wall %v), want %v on the other side", i, end.CommMS, rec.Wall.CommMS, st.Comm)
				}
			}
		})
	}
}
