package hadoopsim

import (
	"sort"
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
)

const workEps = 1e-6

// tickWork is the per-tick demand snapshot for one attempt.
type tickWork struct {
	a        *attempt
	cpuWant  float64
	diskWant float64
	flows    []*flow
}

// allocateAndAdvance runs the two-pass resource round: register every
// attempt's demands on its node(s), fix the per-node grant scales, then
// advance all attempts by their grants, handling phase transitions,
// fault-induced failures, and log emission.
func (c *Cluster) allocateAndAdvance() {
	var work []tickWork
	for _, n := range c.slaves {
		for _, a := range n.mapAttempts {
			work = append(work, c.registerDemands(a))
		}
		for _, a := range n.reduceAttempts {
			work = append(work, c.registerDemands(a))
		}
	}
	for _, n := range c.slaves {
		n.computeScales()
	}
	for i := range work {
		c.advance(&work[i])
	}
}

// partitionBlocked reports whether traffic from src to dst is black-holed
// by an asymmetric partition: a partitioned node stops receiving from the
// lower half of the cluster while its own transmissions (and traffic
// between healthy peers) still flow.
func (c *Cluster) partitionBlocked(src, dst int) bool {
	if src == dst {
		return false
	}
	return c.slaves[dst].fault == FaultNetPartition && src < len(c.slaves)/2
}

// registerDemands computes what the attempt wants this tick and registers
// it on the involved nodes.
func (c *Cluster) registerDemands(a *attempt) tickWork {
	w := tickWork{a: a}
	if a.finished {
		return w
	}
	n := a.node

	if n.gcPaused {
		// Stop-the-world: the JVM is frozen — no compute, no I/O, just the
		// occasional kernel-side wakeup.
		w.cpuWant = 0.02
		n.addCPUDemand(w.cpuWant)
		return w
	}

	switch {
	case a.hang && a.hangBurnCPU:
		w.cpuWant = 1.0 // HADOOP-1036: busy loop on one core
	case a.hang:
		w.cpuWant = 0.01 // blocked, occasional wakeup
	default:
		switch a.phase {
		case phaseMapRun:
			w.cpuWant = clamp(a.cpuLeft, 0.05, mapPhaseCPU)
		case phaseCopy:
			w.cpuWant = copyPhaseCPU
		case phaseSort:
			w.cpuWant = clamp(a.cpuLeft, 0.05, sortPhaseCPU)
		case phaseReduce:
			w.cpuWant = clamp(a.cpuLeft, 0.05, reducePhaseCPU)
		}
	}
	n.addCPUDemand(w.cpuWant)

	if !a.hang {
		w.diskWant = a.diskLeft
		if w.diskWant > taskDiskCapMBps {
			w.diskWant = taskDiskCapMBps
		}
		if w.diskWant < 0 {
			w.diskWant = 0
		}
		n.addDiskDemand(w.diskWant)

		// Persistent flows (block reads, replication writes).
		for _, f := range a.flows {
			if f.left <= workEps || f.src == f.dst {
				continue
			}
			if c.partitionBlocked(f.src, f.dst) {
				// The transfer stalls in the black hole; the receiver sees
				// only its peer's futile retransmissions.
				f.want = 0
				c.slaves[f.dst].partitionDropMB += minF(f.left, taskNetCapMBps)
				continue
			}
			f.want = f.left
			if f.want > taskNetCapMBps {
				f.want = taskNetCapMBps
			}
			c.registerFlow(f)
			w.flows = append(w.flows, f)
		}

		// Shuffle flows rebuilt each tick from the available map outputs,
		// the per-attempt network cap split across source nodes. Sources
		// behind an asymmetric partition are unreachable: their output
		// stays pending and the fetch attempts count as dropped traffic.
		if a.phase == phaseCopy && len(a.copyAvail) > 0 {
			srcs := make([]int, 0, len(a.copyAvail))
			for s, mb := range a.copyAvail {
				if mb > workEps {
					srcs = append(srcs, s)
				}
			}
			// Filter and sum in source order: float sums in map order
			// would differ between identically seeded clusters.
			sort.Ints(srcs)
			reachable := srcs[:0]
			var totalAvail float64
			for _, s := range srcs {
				mb := a.copyAvail[s]
				if c.partitionBlocked(s, n.Index) {
					n.partitionDropMB += minF(mb, 5)
					continue
				}
				reachable = append(reachable, s)
				totalAvail += mb
			}
			srcs = reachable
			if totalAvail > workEps {
				budget := minF(taskNetCapMBps, totalAvail)
				for _, s := range srcs {
					f := &flow{
						src: s, dst: n.Index, kind: flowShuffle,
						left: a.copyAvail[s],
						want: budget * a.copyAvail[s] / totalAvail,
					}
					if s == n.Index {
						// Local map output: disk copy, no network.
						f.diskAtSrc = true
						c.slaves[s].addDiskDemand(f.want)
					} else {
						f.diskAtSrc = true
						c.registerFlow(f)
					}
					w.flows = append(w.flows, f)
				}
			}
		}
	}
	return w
}

func (c *Cluster) registerFlow(f *flow) {
	src, dst := c.slaves[f.src], c.slaves[f.dst]
	src.txDemand += f.want
	dst.rxDemand += f.want
	if f.diskAtSrc {
		src.addDiskDemand(f.want)
	}
	if f.diskAtDst {
		dst.addDiskDemand(f.want)
	}
}

// grantFor computes a flow's granted MB this tick from the involved nodes'
// scales.
func (c *Cluster) grantFor(f *flow) float64 {
	src, dst := c.slaves[f.src], c.slaves[f.dst]
	scale := 1.0
	if f.src != f.dst {
		scale = minF(src.txScale, dst.rxScale)
	}
	if f.diskAtSrc {
		scale = minF(scale, src.diskScale)
	}
	if f.diskAtDst {
		scale = minF(scale, dst.diskScale)
	}
	return f.want * scale
}

// advance applies this tick's grants to the attempt and processes phase
// transitions, completion, and fault behaviour.
func (c *Cluster) advance(w *tickWork) {
	a := w.a
	if a == nil || a.finished {
		return
	}
	n := a.node
	progressed := false

	// pf scales effective progress: zero during a stop-the-world pause,
	// fractional on a straggling node — demand was registered at full size,
	// but the work completed per granted unit shrinks.
	pf := n.progressFactor()
	if !a.hang && pf > 0 {
		if g := w.cpuWant * n.cpuGrant * pf; g > 0 && a.cpuLeft > 0 && a.phase != phaseCopy {
			a.cpuLeft -= g
			progressed = true
		}
		if g := w.diskWant * n.diskScale * pf; g > 0 && a.diskLeft > 0 {
			a.diskLeft -= g
			progressed = true
		}
		for _, f := range w.flows {
			g := c.grantFor(f) * pf
			if g <= 0 {
				continue
			}
			switch f.kind {
			case flowShuffle:
				if g > a.copyAvail[f.src] {
					g = a.copyAvail[f.src]
				}
				a.copyAvail[f.src] -= g
				a.copyFetched += g
			default:
				f.left -= g
			}
			if g > 0 {
				progressed = true
			}
		}
	}
	if progressed {
		a.lastProgress = c.now
	}

	// HADOOP-1152: the attempt dies once it has copied half its input.
	if a.failMidCopy && a.phase == phaseCopy && a.copyExpected > 0 &&
		a.copyFetched >= 0.5*a.copyExpected {
		c.jt.failedAttempts = append(c.jt.failedAttempts, &failedAttempt{
			a: a, reason: "java.io.IOException: failed to rename map output",
		})
		return
	}

	switch a.phase {
	case phaseMapRun:
		if a.cpuLeft <= workEps && a.diskLeft <= workEps && flowsDone(a.flows) {
			// The block read is complete: the serving datanode logs it.
			for _, f := range a.flows {
				if f.kind == flowBlockRead {
					_ = c.slaves[f.src].dnLog.ServedBlock(c.now,
						hadooplog.BlockID(f.blockID), addrHost(n.Addr))
				}
			}
			c.jt.doneAttempts = append(c.jt.doneAttempts, a)
		}
	case phaseCopy:
		j := a.task.job
		copied := a.copyExpected <= workEps || a.copyFetched >= a.copyExpected-workEps
		if copied && j.mapsDone >= len(j.maps) {
			c.enterSort(a)
		} else {
			c.maybeLogReduceProgress(a)
		}
	case phaseSort:
		if !a.hang && a.cpuLeft <= workEps && a.diskLeft <= workEps {
			c.enterReduce(a)
		} else {
			c.maybeLogReduceProgress(a)
		}
	case phaseReduce:
		if a.cpuLeft <= workEps && a.diskLeft <= workEps && flowsDone(a.flows) {
			c.finishReduce(a)
		} else {
			c.maybeLogReduceProgress(a)
		}
	}
}

// enterSort transitions a reduce attempt into the sort/merge phase.
func (c *Cluster) enterSort(a *attempt) {
	j := a.task.job
	a.phase = phaseSort
	a.cpuNeed = j.reduceInputMB * j.class.sortCPUPerMB
	a.cpuLeft = a.cpuNeed
	a.diskNeed = 2 * j.reduceInputMB // merge passes
	a.diskLeft = a.diskNeed
	if a.hangAtSort {
		// HADOOP-2080: the merge hits a miscomputed checksum and hangs.
		a.hang = true
	}
	_ = a.node.ttLog.ReduceProgress(c.now, taskIDOf(a), 33.4, hadooplog.PhaseSort)
	a.lastLogAt = c.now
}

// enterReduce transitions into the final reduce phase: the user reduce
// function runs and the output is written to HDFS through a replication
// pipeline.
func (c *Cluster) enterReduce(a *attempt) {
	j := a.task.job
	a.phase = phaseReduce
	a.cpuNeed = j.reduceInputMB * j.class.reduceCPUPerMB
	a.cpuLeft = a.cpuNeed
	a.diskNeed = j.reduceOutputMB
	a.diskLeft = a.diskNeed
	a.flows = nil
	if j.reduceOutputMB > workEps {
		a.outBlock = c.nn.allocate(c, j.reduceOutputMB, a.node.Index)
		writer := addrHost(a.node.Addr)
		for _, r := range a.outBlock.replicas {
			_ = c.slaves[r].dnLog.ReceivingBlock(c.now, hadooplog.BlockID(a.outBlock.id),
				writer, addrHost(c.slaves[r].Addr))
			if r != a.node.Index {
				a.flows = append(a.flows, &flow{
					src: a.node.Index, dst: r, left: j.reduceOutputMB,
					diskAtDst: true, kind: flowReplicate, blockID: a.outBlock.id,
				})
			}
		}
	}
	_ = a.node.ttLog.ReduceProgress(c.now, taskIDOf(a), 66.7, hadooplog.PhaseReduce)
	a.lastLogAt = c.now
}

// finishReduce completes the output pipeline and marks the attempt done.
func (c *Cluster) finishReduce(a *attempt) {
	if a.outBlock != nil {
		writer := addrHost(a.node.Addr)
		size := int64(a.outBlock.sizeMB * 1e6)
		for _, r := range a.outBlock.replicas {
			_ = c.slaves[r].dnLog.ReceivedBlock(c.now, hadooplog.BlockID(a.outBlock.id), size, writer)
		}
		a.task.job.outputBlocks = append(a.task.job.outputBlocks, a.outBlock.id)
	}
	c.jt.doneAttempts = append(c.jt.doneAttempts, a)
}

// maybeLogReduceProgress emits a TaskTracker progress line every few
// seconds, which keeps the white-box sub-state (copy/sort/reduce) visible.
func (c *Cluster) maybeLogReduceProgress(a *attempt) {
	// A hung task's JVM reports nothing (HADOOP-1036/2080), and a JVM in a
	// stop-the-world pause reports nothing either, so their silence is
	// visible in the logs.
	if a.task.isMap || a.hang || a.node.gcPaused || c.now.Sub(a.lastLogAt) < 5*time.Second {
		return
	}
	var pct float64
	var ph hadooplog.ReducePhase
	switch a.phase {
	case phaseCopy:
		ph = hadooplog.PhaseCopy
		if a.copyExpected > 0 {
			pct = 33.3 * a.copyFetched / a.copyExpected
		}
	case phaseSort:
		ph = hadooplog.PhaseSort
		pct = 33.4
		if a.cpuNeed > 0 {
			pct += 33.3 * (1 - a.cpuLeft/a.cpuNeed)
		}
	case phaseReduce:
		ph = hadooplog.PhaseReduce
		pct = 66.7
		if a.cpuNeed > 0 {
			pct += 33.3 * (1 - a.cpuLeft/a.cpuNeed)
		}
	default:
		return
	}
	_ = a.node.ttLog.ReduceProgress(c.now, taskIDOf(a), pct, ph)
	a.lastLogAt = c.now
}

func flowsDone(flows []*flow) bool {
	for _, f := range flows {
		if f.left > workEps {
			return false
		}
	}
	return true
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// addrHost strips the port from a node address for log messages.
func addrHost(addr string) string {
	for i := 0; i < len(addr); i++ {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}
