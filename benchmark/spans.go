package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary of the replay. Start and
// End are nanoseconds since the recorder was created; Parent is the id of
// the span that was open when this one began (-1 for a root); Trace is the
// iteration (training) or request index (serving) every span of one unit of
// work shares.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in a preallocated slice and writes them out only
// after the replay. It is confined to the goroutine driving the replay:
// every layer call the replay spans is made from that goroutine.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of open span ids
	trace int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the currently open one and returns its id.
func (r *recorder) begin(layer, name string) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Layer: layer, Name: name,
		Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	r.spans[id].End = int64(time.Since(r.t0))
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d (%s) closed out of order", id, r.spans[id].Name))
	}
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children: the time the layer itself was busy. Children never
// overlap each other here because one goroutine records them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanStats aggregates a replay's spans: self time per layer, and the
// per-span durations and self times of each span name in microseconds.
type spanStats struct {
	layerSelfNS map[string]int64
	durUS       map[string][]float64
	selfUS      map[string][]float64
}

func aggregate(spans []span) spanStats {
	st := spanStats{
		layerSelfNS: map[string]int64{},
		durUS:       map[string][]float64{},
		selfUS:      map[string][]float64{},
	}
	self := selfTimes(spans)
	for i, s := range spans {
		st.layerSelfNS[s.Layer] += self[i]
		st.durUS[s.Name] = append(st.durUS[s.Name], float64(s.End-s.Start)/1e3)
		st.selfUS[s.Name] = append(st.selfUS[s.Name], float64(self[i])/1e3)
	}
	return st
}

// writeJSONL writes one span per line to path, creating its directory.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
