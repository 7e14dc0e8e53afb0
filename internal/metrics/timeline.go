package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// TimelineKind is the header discriminator of timeline files.
const TimelineKind = "hetkg-timeline/v1"

// DefaultTimelineEvery is the default iteration interval between records.
const DefaultTimelineEvery = 10

// TimelineHeader is the first JSONL line of a timeline: run identity plus
// the emission interval.
type TimelineHeader struct {
	Kind    string `json:"kind"` // always TimelineKind
	System  string `json:"system,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Every   int    `json:"every"`
	Seed    int64  `json:"seed"`
}

// TimelineWall carries a record's wall-clock measurements. Wall values are
// nondeterministic (they depend on the machine and the scheduler) and are
// kept out of the rest of the record so that everything outside "wall" is
// bit-identical across runs of the same configuration.
type TimelineWall struct {
	// ElapsedMS is wall-clock milliseconds since training started (interval
	// records).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// CompMS is gradient-computation milliseconds: accumulated over the run
	// in an interval record, the epoch's critical path in an epoch record.
	CompMS float64 `json:"comp_ms,omitempty"`
	// PairsPerSec is the run's throughput so far: scored (positive,
	// negative) pairs per wall-clock second (interval records).
	PairsPerSec float64 `json:"pairs_per_sec,omitempty"`
	// CommMS stands in for TimelineEpoch.CommMS where communication time is
	// not a pure cost-model value: PBG's is its share of a makespan that
	// also schedules measured computation.
	CommMS float64 `json:"comm_ms,omitempty"`
	// CumMS is training time (comp + comm) through the end of the epoch.
	CumMS float64 `json:"cum_ms,omitempty"`
}

// TimelineEpoch is the deterministic summary of one completed epoch.
type TimelineEpoch struct {
	// MRR is the validation MRR at the epoch boundary (0 = not evaluated).
	MRR float64 `json:"mrr,omitempty"`
	// CommMS is the epoch's critical-path communication time in simulated
	// milliseconds: the cost model over the metered traffic.
	CommMS float64 `json:"comm_ms,omitempty"`
	// HitRatio is the epoch's hot-embedding cache hit ratio.
	HitRatio float64 `json:"hit_ratio,omitempty"`
}

// TimelineRecord is one emitted line: the training position, the loss, a
// deterministic registry snapshot, and optional wall-clock readings. A run
// writes an interval record every Header.Every iterations and an epoch
// record — the one with EpochEnd set — at each epoch boundary.
type TimelineRecord struct {
	// Iter is the global iteration (mini-batch rounds across all epochs);
	// 0 in the epoch records of PBG, which has no global round counter.
	Iter int `json:"iter"`
	// Epoch is the 1-based epoch the iteration belongs to.
	Epoch int `json:"epoch"`
	// Loss is the mean pair loss over workers' running epoch averages; in
	// an epoch record, the epoch's final mean loss.
	Loss float64 `json:"loss"`
	// Metrics is the registry snapshot with timers excluded.
	Metrics Snapshot `json:"metrics"`
	// EpochEnd marks an epoch record and carries the epoch's summary.
	EpochEnd *TimelineEpoch `json:"epoch_end,omitempty"`
	// Wall holds the record's nondeterministic wall-clock readings.
	Wall *TimelineWall `json:"wall,omitempty"`
}

// TimelineEmitter appends timeline records for one run to a writer. It is
// not safe for concurrent use; the training loop emits from its scheduling
// goroutine.
type TimelineEmitter struct {
	reg   *Registry
	enc   *json.Encoder
	every int
}

// NewTimelineEmitter writes the header line and returns an emitter that
// snapshots reg on each Emit. hdr.Kind is forced to TimelineKind and
// hdr.Every to the effective interval (DefaultTimelineEvery when
// unspecified). The header and every record reach w as one write each, as
// they are produced: a run that fails, whenever it does, leaves a file that
// says what it was and how far it got.
func NewTimelineEmitter(w io.Writer, reg *Registry, hdr TimelineHeader) (*TimelineEmitter, error) {
	if reg == nil {
		return nil, fmt.Errorf("metrics: timeline emitter needs a registry")
	}
	every := hdr.Every
	if every <= 0 {
		every = DefaultTimelineEvery
	}
	hdr.Kind = TimelineKind
	hdr.Every = every
	enc := json.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		return nil, fmt.Errorf("metrics: writing timeline header: %w", err)
	}
	return &TimelineEmitter{reg: reg, enc: enc, every: every}, nil
}

// Every returns the emission interval in iterations.
func (e *TimelineEmitter) Every() int { return e.every }

// ShouldEmit reports whether the given global iteration is on the emission
// grid.
func (e *TimelineEmitter) ShouldEmit(iter int) bool {
	return iter > 0 && iter%e.every == 0
}

// Emit writes one record. When rec.Metrics is nil it is filled with the
// registry's deterministic snapshot (timers excluded).
func (e *TimelineEmitter) Emit(rec TimelineRecord) error {
	if rec.Metrics == nil {
		rec.Metrics = e.reg.Snapshot().Deterministic()
	}
	if err := e.enc.Encode(rec); err != nil {
		return fmt.Errorf("metrics: writing timeline record (iter %d): %w", rec.Iter, err)
	}
	return nil
}

// TimelineRun is a fully parsed timeline file.
type TimelineRun struct {
	Header  TimelineHeader
	Records []TimelineRecord
}

// ReadTimeline parses a timeline written by TimelineEmitter. A malformed
// final line is tolerated: a run killed mid-write (crash, SIGKILL, full
// disk) leaves a truncated trailing record, and the complete prefix is still
// a valid timeline. A malformed line followed by further records is real
// corruption and stays an error.
func ReadTimeline(r io.Reader) (*TimelineRun, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("metrics: empty timeline")
	}
	var run TimelineRun
	if err := json.Unmarshal(sc.Bytes(), &run.Header); err != nil {
		return nil, fmt.Errorf("metrics: parsing timeline header: %w", err)
	}
	if run.Header.Kind != TimelineKind {
		return nil, fmt.Errorf("metrics: not a timeline file (kind %q)", run.Header.Kind)
	}
	line := 1
	var pendingErr error // a parse failure that is fatal only if more data follows
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var rec TimelineRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			pendingErr = fmt.Errorf("metrics: timeline line %d: %w", line, err)
			continue
		}
		run.Records = append(run.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: reading timeline: %w", err)
	}
	return &run, nil
}

// ReadTimelineFile parses the timeline at path.
func ReadTimelineFile(path string) (*TimelineRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: opening timeline %s: %w", path, err)
	}
	defer f.Close()
	return ReadTimeline(f)
}
