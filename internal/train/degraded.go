package train

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"hetkg/internal/ps"
	"hetkg/internal/vec"
)

// Degraded mode: shard-outage survival for cache-backed trainers. When a
// pull or push fails because a shard link is down (ps.DegradedError, i.e.
// every retry exhausted or the circuit breaker open), the worker keeps
// training instead of dying: pulls for rows still within
// RunConfig.DegradedMaxStaleness are served from the hot cache, and pushes
// for the unreachable shard coalesce by key into a bounded buffer that
// replays once the link recovers. Correctness stays explicit — a row used
// for a gradient is never staler than max(CacheSyncEvery,
// DegradedMaxStaleness) iterations, a never-cached row or a full buffer
// fails the run, and finalize drains the buffer strictly so no update
// mass is silently dropped.

// degradedEnabled reports whether this worker may survive a shard outage:
// the mode is opted into via DegradedMaxStaleness and needs a hot cache
// to serve stale rows from.
func (w *worker) degradedEnabled() bool {
	return w.cfg.DegradedMaxStaleness > 0 && w.hot != nil
}

// staleServe points the slot table's rows for deg's unfetched keys at the
// hot cache's copies, accepting rows up to DegradedMaxStaleness iterations
// old. Every key must be served — a row that was never cached, or aged
// past the bound, makes the outage fatal. Returns the stale-served keys,
// sorted, so the gather path can keep their staleness clocks untouched
// (only a fresh server value may reset one).
func (w *worker) staleServe(deg *ps.DegradedError) ([]ps.Key, error) {
	tbl := &w.scr.tbl
	for _, k := range deg.Keys {
		row, ok := w.hot.ServeStale(k, w.iteration, w.cfg.DegradedMaxStaleness)
		if !ok {
			return nil, fmt.Errorf("train: degraded pull: row %v unavailable within the %d-iteration staleness bound: %w",
				k, w.cfg.DegradedMaxStaleness, deg.Err)
		}
		tbl.rows[tbl.slot(k)] = row
	}
	w.obs.degradedStale.Add(int64(len(deg.Keys)))
	served := slices.Clone(deg.Keys)
	slices.Sort(served)
	return served, nil
}

// bufferPushes coalesces the unpushed gradient rows (down, out of the
// push's keys in key order and their grads) into the worker's replay
// buffer: a key already buffered accumulates (gradient sums commute with
// the deferred apply), a fresh key claims a buffer slot. Overflowing
// degradedMaxBufferedRows makes the outage fatal.
func (w *worker) bufferPushes(down, keys []ps.Key, grads [][]float32, cause error) error {
	space := w.client.Keys()
	if w.pushBuf == nil {
		w.pushBuf = make([][]float32, space.Len())
	}
	fresh := 0
	for _, k := range down {
		i, ok := slices.BinarySearch(keys, k)
		if !ok {
			continue
		}
		g := grads[i]
		x, _ := space.Index(k)
		if buf := w.pushBuf[x]; buf != nil {
			vec.Add(buf, buf, g)
			continue
		}
		if w.buffered >= cmp.Or(w.cfg.hooks.bufferCap, degradedMaxBufferedRows) {
			return fmt.Errorf("train: degraded push buffer full (%d rows): %w", w.buffered, cause)
		}
		w.pushBuf[x] = append([]float32(nil), g...)
		w.buffered++
		fresh++
	}
	w.obs.degradedBuffered.Add(int64(fresh))
	return nil
}

// pushBuffered pushes every buffered row, in index order, which is key
// order.
func (w *worker) pushBuffered() error {
	space := w.client.Keys()
	keys := make([]ps.Key, 0, w.buffered)
	rows := make([][]float32, 0, w.buffered)
	for x, row := range w.pushBuf {
		if row != nil {
			keys = append(keys, space.Key(x))
			rows = append(rows, row)
		}
	}
	return w.client.PushRows(keys, rows)
}

// replayPushes re-sends the buffered gradient rows ahead of the current
// batch's push (buffered updates for a key must land before newer ones).
// Rows whose shards answered leave the buffer; rows whose link is still
// down stay for the next attempt. Only a non-outage error surfaces.
func (w *worker) replayPushes() error {
	if w.buffered == 0 {
		return nil
	}
	err := w.pushBuffered()
	if err == nil {
		w.obs.degradedReplayed.Add(int64(w.buffered))
		w.pushBuf, w.buffered = nil, 0
		return nil
	}
	var deg *ps.DegradedError
	if !errors.As(err, &deg) {
		return err
	}
	// deg.Keys name the buffered rows still down, each once.
	space := w.client.Keys()
	down := make([][]float32, len(w.pushBuf))
	for _, k := range deg.Keys {
		x, _ := space.Index(k)
		down[x] = w.pushBuf[x]
	}
	w.obs.degradedReplayed.Add(int64(w.buffered - len(deg.Keys)))
	w.pushBuf, w.buffered = down, len(deg.Keys)
	return nil
}

// drainDegraded is the strict end-of-run replay: every buffered gradient
// row must land (the shard had the whole run to recover) or the run
// fails instead of silently dropping update mass. Called by finalize for
// every worker before embeddings are gathered.
func (w *worker) drainDegraded() error {
	if w.buffered == 0 {
		return nil
	}
	n := w.buffered
	if err := w.pushBuffered(); err != nil {
		return fmt.Errorf("train: replaying %d buffered degraded push rows: %w", n, err)
	}
	w.obs.degradedReplayed.Add(int64(n))
	w.pushBuf, w.buffered = nil, 0
	return nil
}
