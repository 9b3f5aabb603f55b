package seqcheck

import (
	"sync"
	"sync/atomic"

	"repro/internal/sem"
	"repro/internal/stats"
)

// The parallel search is a level-synchronized BFS split into two
// alternating phases per level:
//
//   - an expansion round, where the worker pool claims items (states) off
//     the level by atomic index, runs sem.Step, fingerprints each
//     successor, and drops successors already in the sharded visited set
//     (a read-only prefilter — the set is frozen during the round, so
//     the answer is deterministic);
//   - a single-threaded commit loop, which replays the level in item
//     order through exactly the budget checks of the sequential BFS
//     search: steps budget before each expansion, first failure wins at
//     the lowest item index, within-level duplicates resolved in item
//     order via Set.Seen, states budget per fresh state.
//
// Because the commit loop alone mutates the visited set and all search
// counters, every Result field that is deterministic for the sequential
// BFS search is bit-identical here at every worker count; the workers
// only decide wall-clock and the diagnostics in Result.Parallel. The
// price is that a level whose commit trips a budget has expanded its
// remaining items for nothing — bounded waste, one level's worth.

// minParallelLevel is the level size below which the coordinator expands
// inline rather than paying worker fan-out for a handful of states.
const minParallelLevel = 4

// workerPollStride is how many items a worker claims between context
// polls (ctx.Err takes a mutex; items are whole Step calls, so this is a
// much coarser unit than the sequential loop's ctxPollStride).
const workerPollStride = 64

// expansion is one prefiltered successor produced by a worker: the
// outcome plus its fingerprint, hashed worker-side so the commit loop
// never hashes. idx is the successor's raw index in the unpruned outcome
// list — the macro engine's within-level ordering key (the per-statement
// engine records it too, for uniformity; it is simply the loop index).
type expansion struct {
	out sem.Outcome
	fp  uint64
	idx int32
}

// Expansion rounds allocate a successor buffer per item and a slot slice
// per level, all dead by the next level. The pools recycle them across
// levels and across checks; buffers are cleared before Put so pooled
// memory never pins dead states. Early returns (budget trips, failures)
// may skip a Put — a pool miss later, never a leak or a correctness
// issue. (Frontier frames themselves live in the frontier.Queue now,
// which owns and reuses their slices.)
var (
	expPool  = sync.Pool{New: func() any { return new([]expansion) }}
	slotPool = sync.Pool{New: func() any { return new([]itemSlot) }}
)

func expGet() []expansion {
	return (*expPool.Get().(*[]expansion))[:0]
}

func expPut(exps []expansion) {
	clear(exps)
	exps = exps[:0]
	expPool.Put(&exps)
}

func slotsGet(n int) []itemSlot {
	slots := (*slotPool.Get().(*[]itemSlot))[:0]
	if cap(slots) < n {
		return make([]itemSlot, n)
	}
	slots = slots[:n]
	clear(slots)
	return slots
}

func slotsPut(slots []itemSlot) {
	clear(slots)
	slots = slots[:0]
	slotPool.Put(&slots)
}

// itemSlot is the private output slot for one level item. Slots make the
// round's output independent of worker scheduling: item i's results land
// in slot i no matter which worker claimed it.
type itemSlot struct {
	fail   *sem.Failure
	exps   []expansion
	worker int
}

// pframe is a frontier entry: a state plus its position in the trace tree.
type pframe struct {
	st *sem.State
	nd *node
}

func checkParallel(c *sem.Compiled, opts Options) *Result {
	workers := opts.SearchWorkers
	res := &Result{}
	init := sem.NewState(c)

	vis := newVisited(opts)
	vis.Seen(sem.NewFPHasher().Hash(init))
	res.States = 1
	res.PeakFrontier = 1
	perWorker := make([]int, workers)
	// The level queue is a FIFO frontier bucket per depth: arrival order
	// is commit order, spilled or resident, and a fully resident level
	// streams back as one chunk — the classic whole-level pass.
	q := newSeqQueue(c, opts, false)
	defer q.Close()
	defer func() {
		res.Visited = vis.Len()
		res.Parallel = &stats.Parallel{
			Workers:         workers,
			Shards:          vis.Shards(),
			PerWorkerStates: perWorker,
			ShardContention: vis.Contention(),
		}
		res.Memory = memoryRecord(opts, vis, q.Stats())
	}()

	hashers := make([]*sem.FPHasher, workers)
	for i := range hashers {
		hashers[i] = sem.NewFPHasher()
	}

	q.Push(0, pframe{st: init, nd: &node{}})
	for depth := 0; q.Len() > 0; depth++ {
		res.PeakDepth = depth
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				res.Verdict = ResourceBound
				res.Reason = reasonFor(err)
				return res
			}
		}
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			break // no state at or below this level may be expanded
		}

		bkt := q.Drain(depth)
		total := bkt.Len()
		pushed := 0 // successors committed to depth+1 so far
		base := 0   // items of this level committed in earlier chunks
		for {
			level, _ := bkt.Next(frontierChunk)
			if len(level) == 0 {
				break
			}

			// Expansion round.
			slots := slotsGet(len(level))
			expandItem := func(i, w int) {
				it := level[i]
				if it.st.Threads[0].Done() {
					return
				}
				sr := sem.Step(it.st, 0)
				if sr.Failure != nil {
					slots[i] = itemSlot{fail: sr.Failure, worker: w}
					return
				}
				exps := expGet()
				for k, out := range sr.Outcomes {
					fp := hashers[w].Hash(out.State)
					if vis.Contains(fp) {
						continue
					}
					exps = append(exps, expansion{out: out, fp: fp, idx: int32(k)})
				}
				slots[i] = itemSlot{exps: exps, worker: w}
			}
			if workers == 1 || len(level) < minParallelLevel {
				for i := range level {
					expandItem(i, 0)
					if opts.Context != nil && i%workerPollStride == workerPollStride-1 {
						if err := opts.Context.Err(); err != nil {
							res.Verdict = ResourceBound
							res.Reason = reasonFor(err)
							return res
						}
					}
				}
			} else {
				var claim atomic.Int64
				var stop atomic.Bool
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						polled := 0
						for {
							i := int(claim.Add(1)) - 1
							if i >= len(level) || stop.Load() {
								return
							}
							expandItem(i, w)
							if polled++; polled >= workerPollStride {
								polled = 0
								if opts.Context != nil && opts.Context.Err() != nil {
									stop.Store(true)
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				if stop.Load() {
					res.Verdict = ResourceBound
					res.Reason = reasonFor(opts.Context.Err())
					return res
				}
			}

			// Commit: replay the chunk in arrival order through the
			// sequential search's budget checks.
			for i := range level {
				it := level[i]
				if it.st.Threads[0].Done() {
					continue
				}
				if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
					res.Verdict = ResourceBound
					res.Reason = stats.ReasonSteps
					return res
				}
				res.Steps++
				sl := &slots[i]
				if sl.fail != nil {
					return failAt(c, res, it.nd, nil, sl.fail)
				}
				for _, ex := range sl.exps {
					if vis.Seen(ex.fp) {
						continue // claimed by an earlier item this level
					}
					perWorker[sl.worker]++
					res.States++
					if opts.MaxStates > 0 && res.States > opts.MaxStates {
						res.Verdict = ResourceBound
						res.Reason = stats.ReasonStates
						return res
					}
					q.Push(depth+1, pframe{
						st: ex.out.State,
						nd: &node{parent: it.nd, idx: ex.idx, depth: depth + 1},
					})
					pushed++
					if fl := (total - 1 - (base + i)) + pushed; fl > res.PeakFrontier {
						res.PeakFrontier = fl
					}
				}
				if sl.exps != nil {
					expPut(sl.exps)
					sl.exps = nil
				}
			}
			slotsPut(slots)
			base += len(level)
		}
		bkt.Close()
		opts.Collector.Sample(res.States, res.Steps, pushed, depth, vis.Len())
	}
	res.Verdict = Safe
	return res
}
