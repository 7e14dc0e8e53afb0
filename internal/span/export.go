package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Kind is the header discriminator of span dump files.
const Kind = "hetkg-spans/v1"

// Header is the first JSONL line of a span dump: run identity plus the
// sampling interval, mirroring the timeline header so both recorders
// (hetkg-timeline/v1, hetkg-spans/v1) identify runs the same way.
type Header struct {
	Kind    string `json:"kind"` // always Kind
	System  string `json:"system,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Every   int    `json:"every"`
	Seed    int64  `json:"seed"`
}

// Dump is a fully parsed span file.
type Dump struct {
	Header Header
	Spans  []Span
}

// WriteJSONL writes a span dump: one header line, then one span per line.
func WriteJSONL(w io.Writer, hdr Header, spans []Span) error {
	hdr.Kind = Kind
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("span: encoding header: %w", err)
	}
	for i, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("span: encoding span %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a span dump written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("span: empty input")
	}
	var d Dump
	if err := json.Unmarshal(sc.Bytes(), &d.Header); err != nil {
		return nil, fmt.Errorf("span: parsing header: %w", err)
	}
	if d.Header.Kind != Kind {
		return nil, fmt.Errorf("span: not a span dump (kind %q, want %q)", d.Header.Kind, Kind)
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		d.Spans = append(d.Spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("span: reading: %w", err)
	}
	return &d, nil
}

// ReadFile parses the span dump at path.
func ReadFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("span: opening %s: %w", path, err)
	}
	defer f.Close()
	return ReadJSONL(f)
}

// WriteFile writes a span dump (WriteJSONL) to path, creating its directory.
func WriteFile(path string, hdr Header, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span: creating directory of %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span: creating %s: %w", path, err)
	}
	if err := WriteJSONL(f, hdr, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chromeEvent is one trace-event JSON object, the subset of the Chrome
// trace-event format Perfetto and chrome://tracing accept: complete
// duration events ("ph":"X", microsecond ts/dur) plus process/thread name
// metadata events ("ph":"M").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromePid maps a span's machine index to its Chrome trace process ID.
// Simulated machines become trace "processes"; the shared transport
// (MachineTransport) gets pid 0, machine m gets pid m+1.
func ChromePid(machine int) int { return machine + 1 }

// ChromeTid maps a span's worker index to its Chrome trace thread ID.
// Workers become trace "threads" (worker w → tid w+2); the shard handler
// row is tid 1 and the transport row tid 0.
func ChromeTid(worker int) int { return worker + 2 }

// WriteChromeTrace writes spans as a Chrome trace-event JSON document
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing — the view
// `hetkg trace chrome` prints of a recorded dump. Machines map
// to trace processes and workers to threads; timestamps are rebased to the
// earliest span so the trace starts at t=0.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	// Name every (pid, tid) row once, in deterministic order.
	type row struct{ machine, worker int }
	seen := map[row]bool{}
	var rows []row
	var base int64
	for i, s := range spans {
		if i == 0 || s.StartNS < base {
			base = s.StartNS
		}
		r := row{s.Machine, s.Worker}
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].machine != rows[j].machine {
			return rows[i].machine < rows[j].machine
		}
		return rows[i].worker < rows[j].worker
	})
	for _, r := range rows {
		pname := fmt.Sprintf("machine-%d", r.machine)
		switch r.machine {
		case MachineTransport:
			pname = "transport"
		case MachineCluster:
			pname = "cluster"
		}
		tname := fmt.Sprintf("worker-%d", r.worker)
		switch r.worker {
		case WorkerShard:
			tname = "ps-shard"
		case WorkerTransport:
			tname = "transport"
		case WorkerCluster:
			tname = "cluster"
		}
		doc.TraceEvents = append(doc.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: ChromePid(r.machine), Tid: ChromeTid(r.worker),
				Args: map[string]any{"name": pname}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: ChromePid(r.machine), Tid: ChromeTid(r.worker),
				Args: map[string]any{"name": tname}},
		)
	}

	for _, s := range spans {
		args := map[string]any{
			"trace":  fmt.Sprintf("%#x", s.Trace),
			"span":   s.ID,
			"parent": s.Parent,
		}
		if s.Iter != 0 || s.Name == NBatch {
			args["iter"] = s.Iter
		}
		if s.Rows != 0 {
			args["rows"] = s.Rows
		}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		if s.Shard != NoShard {
			args["shard"] = s.Shard
		}
		name := s.Name
		if s.Sim {
			args["sim"] = true
			name += " (sim)"
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name,
			Ph:   "X",
			TS:   float64(s.StartNS-base) / 1e3, // µs
			Dur:  float64(s.DurNS) / 1e3,
			Pid:  ChromePid(s.Machine),
			Tid:  ChromeTid(s.Worker),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
