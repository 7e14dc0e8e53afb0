package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	// iteration [0,100] ⊃ ps.pull [10,60] ⊃ transport.pull [20,50]; model.grad [60,90].
	spans := []span{
		{ID: 0, Parent: -1, Layer: "replay", Name: "iteration", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "ps.client", Name: "ps.pull", Start: 10, End: 60},
		{ID: 2, Parent: 1, Layer: "ps.tcp", Name: "transport.pull", Start: 20, End: 50},
		{ID: 3, Parent: 0, Layer: "model", Name: "model.grad", Start: 60, End: 90},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 30, 50 - 30, 30, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	st := aggregate(spans)
	var total int64
	for _, ns := range st.layerSelfNS {
		total += ns
	}
	if total != 100 {
		t.Errorf("layer self times sum to %d, want the root's 100", total)
	}
	if st.layerSelfNS["ps.client"] != 20 || st.layerSelfNS["ps.tcp"] != 30 {
		t.Errorf("client/tcp self = %d/%d, want 20/30", st.layerSelfNS["ps.client"], st.layerSelfNS["ps.tcp"])
	}
	if got := st.selfUS["ps.pull"][0]; got != 0.02 {
		t.Errorf("ps.pull self = %v us, want 0.02", got)
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	rec := newRecorder(4)
	rec.trace = 7
	outer := rec.begin("ps.client", "ps.pull")
	inner := rec.begin("ps.tcp", "transport.pull")
	rec.end(inner)
	rec.end(outer)
	if rec.spans[inner].Parent != outer || rec.spans[outer].Parent != -1 {
		t.Fatalf("parents = %d, %d; want %d, -1", rec.spans[inner].Parent, rec.spans[outer].Parent, outer)
	}
	if rec.spans[inner].Trace != 7 {
		t.Errorf("trace id = %d, want 7", rec.spans[inner].Trace)
	}
	if s := rec.spans[inner]; s.Start < rec.spans[outer].Start || s.End > rec.spans[outer].End {
		t.Errorf("child [%d,%d] not inside parent [%d,%d]", s.Start, s.End, rec.spans[outer].Start, rec.spans[outer].End)
	}

	path := filepath.Join(t.TempDir(), "out", "x.spans.jsonl")
	if err := writeJSONL(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var read []span
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		read = append(read, s)
	}
	if len(read) != 2 || read[1] != rec.spans[1] {
		t.Errorf("read back %+v, want %+v", read, rec.spans)
	}
}

func TestRecorderRejectsOutOfOrderEnd(t *testing.T) {
	rec := newRecorder(2)
	outer := rec.begin("a", "outer")
	rec.begin("a", "inner")
	defer func() {
		if recover() == nil {
			t.Error("ending the outer span before the inner one did not panic")
		}
	}()
	rec.end(outer)
}
