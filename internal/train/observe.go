package train

import (
	"time"

	"hetkg/internal/metrics"
)

// trainObs is the train-level view of a run's registry: the handles the
// scheduling loop and workers bump directly. One instance is shared by all
// workers of a run (workerBuilder), so the series aggregate across workers
// the same way the cache/client/meter series do.
type trainObs struct {
	iterations  *metrics.Counter
	pairs       *metrics.Counter
	loss        *metrics.Gauge
	epoch       *metrics.Gauge
	hitRatio    *metrics.Gauge
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	comp        *metrics.Timer

	// Degraded-mode accounting (shard-outage survival): batches trained
	// with a link down, rows stale-served from the cache, gradient rows
	// buffered for replay, and rows replayed after reconnect.
	degradedBatches  *metrics.Counter
	degradedStale    *metrics.Counter
	degradedBuffered *metrics.Counter
	degradedReplayed *metrics.Counter
}

// newTrainObs registers (or re-binds) the train-level series in reg. The
// cache.{hits,misses} counters are the same series HotCache.Instrument
// feeds; binding them here keeps the hit-ratio gauge derivable for
// cacheless trainers too (it just stays 0).
func newTrainObs(reg *metrics.Registry) *trainObs {
	return &trainObs{
		iterations:  reg.Counter(metrics.MTrainIterations),
		pairs:       reg.Counter(metrics.MTrainPairs),
		loss:        reg.Gauge(metrics.MTrainLoss),
		epoch:       reg.Gauge(metrics.MTrainEpoch),
		hitRatio:    reg.Gauge(metrics.MCacheHitRatio),
		cacheHits:   reg.Counter(metrics.MCacheHits),
		cacheMisses: reg.Counter(metrics.MCacheMisses),
		comp:        reg.Timer(metrics.MTrainCompWall),

		degradedBatches:  reg.Counter(metrics.MTrainDegradedBatches),
		degradedStale:    reg.Counter(metrics.MTrainDegradedStaleRows),
		degradedBuffered: reg.Counter(metrics.MTrainDegradedBufferedRows),
		degradedReplayed: reg.Counter(metrics.MTrainDegradedReplayedRows),
	}
}

// ms is d in (fractional) milliseconds, the timeline's time unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newTimeline starts cfg.Timeline as the run's timeline, or returns nil when
// the run records none. Every trainer opens its timeline here before doing
// any work, so the file identifies its run even if the run then fails.
func newTimeline(cfg *Config, system string) (*metrics.TimelineEmitter, error) {
	if cfg.Timeline == nil {
		return nil, nil
	}
	return metrics.NewTimelineEmitter(cfg.Timeline, cfg.Metrics, metrics.TimelineHeader{
		System:  system,
		Dataset: cfg.Dataset,
		Every:   cfg.TimelineEvery,
		Seed:    cfg.Seed,
	})
}

// emitEpoch writes st as the timeline's record of a completed epoch; a nil
// emitter records nothing. iter is the global round the record is written
// at (0 from PBG, which has none). Measured computation and the cumulative
// time built on it go under "wall", as does the communication time when
// wallComm says it was derived from the clock too.
func emitEpoch(em *metrics.TimelineEmitter, iter int, st EpochStat, wallComm bool) error {
	if em == nil {
		return nil
	}
	end := &metrics.TimelineEpoch{MRR: st.MRR, CommMS: ms(st.Comm), HitRatio: st.HitRatio}
	wall := &metrics.TimelineWall{CompMS: ms(st.Comp), CumMS: ms(st.CumTime)}
	if wallComm {
		end.CommMS, wall.CommMS = 0, end.CommMS
	}
	return em.Emit(metrics.TimelineRecord{Iter: iter, Epoch: st.Epoch, Loss: st.Loss, EpochEnd: end, Wall: wall})
}

// emitTimeline refreshes the derived gauges (running loss, epoch, hit ratio)
// and writes one interval record for the given global iteration. Everything
// under the record's "metrics" key is deterministic; wall-clock readings
// (elapsed, computation time, throughput) ride in the separate "wall"
// object.
func emitTimeline(em *metrics.TimelineEmitter, o *trainObs, loss float64,
	iter, epoch int, start time.Time) error {

	o.loss.Set(loss)
	o.epoch.Set(float64(epoch))
	if h, m := o.cacheHits.Value(), o.cacheMisses.Value(); h+m > 0 {
		o.hitRatio.Set(float64(h) / float64(h+m))
	}
	wall := &metrics.TimelineWall{ElapsedMS: ms(time.Since(start)), CompMS: ms(o.comp.Total())}
	if wall.ElapsedMS > 0 {
		wall.PairsPerSec = float64(o.pairs.Value()) / (wall.ElapsedMS / 1000)
	}
	return em.Emit(metrics.TimelineRecord{
		Iter:  iter,
		Epoch: epoch,
		Loss:  loss,
		Wall:  wall,
	})
}
