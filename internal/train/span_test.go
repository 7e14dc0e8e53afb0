package train

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/span"
)

// TestRunWritesChromeTrace is the Chrome-export acceptance test: the span
// dump a run writes, put through the Chrome view (what `hetkg trace chrome`
// prints), must be trace-event JSON Perfetto accepts — a traceEvents array
// of complete ("X") duration events with pid/tid and microsecond timestamps,
// plus process_name/thread_name metadata ("M") events naming the machine and
// worker rows.
func TestRunWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.spans.jsonl")
	_, err := Run(RunConfig{
		Dataset:   "fb15k",
		Scale:     dataset.Tiny,
		System:    SystemHETKGD,
		Epochs:    1,
		Seed:      7,
		SpanPath:  path,
		SpanEvery: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	dump, err := span.ReadFile(path)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var chrome bytes.Buffer
	if err := span.WriteChromeTrace(&chrome, dump.Spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	raw := chrome.Bytes()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	var durEvents, metaEvents, batchEvents int
	procNames := map[string]bool{}
	threadNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			durEvents++
			if ev.TS < 0 {
				t.Errorf("event %q has negative ts %v (rebase failed)", ev.Name, ev.TS)
			}
			if ev.Pid < 0 || ev.Tid < 0 {
				t.Errorf("event %q has negative pid/tid %d/%d", ev.Name, ev.Pid, ev.Tid)
			}
			if ev.Name == span.NBatch {
				batchEvents++
				if _, ok := ev.Args["iter"]; !ok {
					t.Error("batch event missing args.iter")
				}
			}
		case "M":
			metaEvents++
			name, _ := ev.Args["name"].(string)
			switch ev.Name {
			case "process_name":
				procNames[name] = true
			case "thread_name":
				threadNames[name] = true
			default:
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q (Perfetto subset is X and M)", ev.Ph)
		}
	}
	if durEvents == 0 {
		t.Error("no duration (X) events")
	}
	if metaEvents == 0 {
		t.Error("no metadata (M) events")
	}
	if batchEvents == 0 {
		t.Error("no root batch events")
	}
	for _, want := range []string{"machine-0", "machine-1"} {
		if !procNames[want] {
			t.Errorf("no process_name %q (have %v)", want, procNames)
		}
	}
	for _, want := range []string{"worker-0", "ps-shard"} {
		if !threadNames[want] {
			t.Errorf("no thread_name %q (have %v)", want, threadNames)
		}
	}
}

// TestRunWritesSpanJSONL checks the span dump end to end:
// the written dump parses via span.ReadFile, its header identifies the run,
// and it contains stitched root and shard spans.
func TestRunWritesSpanJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.spans.jsonl")
	_, err := Run(RunConfig{
		Dataset:   "fb15k",
		Scale:     dataset.Tiny,
		System:    SystemHETKGC,
		Epochs:    1,
		Seed:      7,
		SpanPath:  path,
		SpanEvery: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, err := span.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if d.Header.Kind != span.Kind {
		t.Errorf("kind = %q", d.Header.Kind)
	}
	if d.Header.System != string(SystemHETKGC) {
		t.Errorf("system = %q, want %q", d.Header.System, SystemHETKGC)
	}
	if d.Header.Every != 4 {
		t.Errorf("every = %d, want 4", d.Header.Every)
	}
	counts := map[string]int{}
	for _, s := range d.Spans {
		counts[s.Name]++
	}
	for _, name := range []string{span.NBatch, span.NGradCompute, span.NPSPull, span.NShardPull} {
		if counts[name] == 0 {
			t.Errorf("no %q spans in dump", name)
		}
	}
}
