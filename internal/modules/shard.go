package modules

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// The sharded collection plane: a multi-node collector partitions its node
// set into contiguous node-index ranges, one per shard, and sweeps each
// range with an independent worker pool. Shards only write disjoint slices
// of the module's per-node scratch, and the module's merge stage is the
// same serial node-index loop as the unsharded path, so output is
// byte-identical to a single-shard sweep by construction — the shards move
// concurrency and failure accounting, not semantics. One shard full of
// dead nodes burns its own fanout budget on timeouts while the other
// shards' sweeps proceed at full speed.

// shardRange is one shard's half-open node-index range [start, end).
type shardRange struct{ start, end int }

// planShards partitions n node indexes into at most count contiguous
// ranges of near-equal size (sizes differ by at most one). count is capped
// at n so no shard is empty, and floored at 1.
func planShards(n, count int) []shardRange {
	if n <= 0 {
		return nil
	}
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	ranges := make([]shardRange, count)
	for s := 0; s < count; s++ {
		ranges[s] = shardRange{start: s * n / count, end: (s + 1) * n / count}
	}
	return ranges
}

// shardSweeper runs a collection module's per-tick sweep across its
// configured shards and keeps the per-shard accounting behind the status
// surface and /metrics. A single-shard sweeper degenerates to the plain
// fanOut call (no extra goroutine, no merge wait), so shards = 1 is the
// pre-sharding collection path exactly.
type shardSweeper struct {
	ranges []shardRange
	widths []int // per-shard fanOut width

	// Telemetry handles are registered only for >= 2 shards, keeping the
	// single-shard exposition surface unchanged; all are nil-safe.
	mSweep     []*telemetry.Histogram // per shard
	mErrs      []*telemetry.Counter   // per shard
	mMergeWait *telemetry.Histogram

	doneAt []time.Duration // per-shard completion offsets, one sweep's scratch

	mu    sync.Mutex
	stats []ShardStatus // cumulative; Shard/Nodes/Fanout fixed at build time
}

// newShardSweeper resolves the sharding knobs for one collection instance
// over n nodes. Instance parameters (shards, shard_fanout) override the
// environment defaults; an unset shard_fanout falls back to the instance's
// fanout parameter, so shards = 1 reproduces the unsharded worker pool.
func newShardSweeper(env *Env, id string, n int, p config.ShardParams, fanout int) *shardSweeper {
	shards := p.Shards
	if shards == 0 {
		shards = env.DefaultShards
	}
	shardFanout := p.ShardFanout
	if shardFanout == 0 {
		shardFanout = env.DefaultShardFanout
	}
	if shardFanout == 0 {
		shardFanout = fanout
	}
	s := &shardSweeper{ranges: planShards(n, shards)}
	s.widths = make([]int, len(s.ranges))
	s.doneAt = make([]time.Duration, len(s.ranges))
	s.stats = make([]ShardStatus, len(s.ranges))
	for i, r := range s.ranges {
		s.widths[i] = resolveFanout(shardFanout, r.end-r.start)
		s.stats[i] = ShardStatus{Shard: i, Nodes: r.end - r.start, Fanout: s.widths[i]}
	}
	if reg := env.Metrics; reg != nil && len(s.ranges) >= 2 {
		il := telemetry.L("instance", id)
		s.mSweep = make([]*telemetry.Histogram, len(s.ranges))
		s.mErrs = make([]*telemetry.Counter, len(s.ranges))
		for i := range s.ranges {
			sl := telemetry.L("shard", strconv.Itoa(i))
			s.mSweep[i] = reg.Histogram("asdf_collect_shard_sweep_seconds",
				"Wall time of one shard's collection sweep.", telemetry.DefBuckets, il, sl)
			s.mErrs[i] = reg.Counter("asdf_collect_shard_errors_total",
				"Failed per-node fetches, by shard.", il, sl)
		}
		s.mMergeWait = reg.Histogram("asdf_collect_shard_merge_wait_seconds",
			"Gap between the first and last shard finishing a sweep — time the merge stage spent blocked on the slowest shard.",
			telemetry.DefBuckets, il)
	}
	return s
}

// sweep invokes fetch(i) for every node index, partitioned across the
// configured shards, and returns once all shards have completed. fetch's
// error return feeds per-shard failure accounting only; the module still
// inspects its own scratch for the merge. Callers store results by node
// index, exactly as with fanOut, so the serial merge that follows is
// order-independent of shard scheduling.
func (s *shardSweeper) sweep(fetch func(int) error) {
	if len(s.ranges) == 0 {
		return
	}
	start := time.Now()
	if len(s.ranges) == 1 {
		r := s.ranges[0]
		errs := s.sweepRange(r, s.widths[0], fetch)
		s.record(0, time.Since(start), errs)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(s.ranges))
	for si := range s.ranges {
		go func(si int) {
			defer wg.Done()
			errs := s.sweepRange(s.ranges[si], s.widths[si], fetch)
			elapsed := time.Since(start)
			s.doneAt[si] = elapsed // distinct index per shard; read after Wait
			s.record(si, elapsed, errs)
		}(si)
	}
	wg.Wait()
	minDone, maxDone := s.doneAt[0], s.doneAt[0]
	for _, d := range s.doneAt[1:] {
		if d < minDone {
			minDone = d
		}
		if d > maxDone {
			maxDone = d
		}
	}
	s.mMergeWait.Observe((maxDone - minDone).Seconds())
}

// sweepRange runs one shard's bounded worker pool and reports how many
// fetches failed.
func (s *shardSweeper) sweepRange(r shardRange, width int, fetch func(int) error) int {
	var errs atomic.Int64
	fanOut(r.end-r.start, width, func(i int) {
		if fetch(r.start+i) != nil {
			errs.Add(1)
		}
	})
	return int(errs.Load())
}

func (s *shardSweeper) record(si int, elapsed time.Duration, errs int) {
	if s.mSweep != nil {
		s.mSweep[si].Observe(elapsed.Seconds())
	}
	if errs > 0 && s.mErrs != nil {
		s.mErrs[si].Add(uint64(errs))
	}
	s.mu.Lock()
	st := &s.stats[si]
	st.Sweeps++
	st.Errors += uint64(errs)
	st.LastErrors = errs
	st.LastSweepSeconds = elapsed.Seconds()
	s.mu.Unlock()
}

// statuses snapshots the per-shard accounting, or nil for a single shard —
// the status surface only grows rows once sharding is actually in play.
func (s *shardSweeper) statuses() []ShardStatus {
	if len(s.ranges) < 2 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardStatus, len(s.stats))
	copy(out, s.stats)
	return out
}

// statusesWithBreakers augments the sweep accounting with each shard's
// count of open per-node circuit breakers (rpc mode; clients parallel to
// the module's node list, nil in local mode).
func (s *shardSweeper) statusesWithBreakers(clients []Streamer) []ShardStatus {
	sts := s.statuses()
	if sts == nil || clients == nil {
		return sts
	}
	for i := range sts {
		for _, c := range clients[s.ranges[i].start:s.ranges[i].end] {
			if h, ok := sourceHealth(c); ok && h.State == rpc.BreakerOpen {
				sts[i].OpenBreakers++
			}
		}
	}
	return sts
}
