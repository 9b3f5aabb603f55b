package concheck

import (
	"sync"
	"sync/atomic"

	"repro/internal/sem"
	"repro/internal/stats"
)

// The per-statement breadth-first search (checkParallel; SearchWorkers 0
// runs it inline) is a level-synchronized BFS split into two alternating
// phases per level:
//
//   - an expansion round, where the worker pool claims items (states) off
//     the level by atomic index, steps *every* schedulable thread of each
//     (honoring POR and the context bound), fingerprints each successor,
//     and drops successors already in the sharded visited set (a
//     read-only prefilter — the set is frozen during the round, so the
//     answer is deterministic);
//   - a single-threaded commit loop, which replays the level in (item,
//     thread) order through exactly the budget checks of a sequential
//     BFS: steps budget before each step, first failure wins at the
//     lowest (item, thread), within-level duplicates resolved in order
//     via Seen, states budget per fresh state.
//
// Because the commit loop alone mutates the visited set and all search
// counters, the verdict, trace, and deterministic metrics are
// bit-identical at every worker count; the workers only decide wall-clock
// and the diagnostics in Result.Parallel. The price is that a level whose
// commit trips a budget has expanded its remaining items for nothing —
// bounded waste, one level's worth.
//
// On a full exploration the depth-first and breadth-first searches report
// the same verdict (failure reachability does not depend on search
// order); runs that trip a budget cover different prefixes of the state
// space.

// minParallelLevel is the level size below which the coordinator expands
// inline rather than paying worker fan-out.
const minParallelLevel = 4

// workerPollStride is how many items a worker claims between context
// polls.
const workerPollStride = 64

// cexpansion is one prefiltered successor: the outcome plus its visited
// key (see visitKey), hashed worker-side so the commit loop never
// hashes, and its raw index in the unpruned outcome list (the macro
// engine's ordering key; the per-statement engine records the loop
// index).
type cexpansion struct {
	out sem.Outcome
	fp  uint64
	idx int32
}

// Buffer pools shared by the expansion rounds of the per-statement and
// macro level engines: each round allocates a successor buffer per item
// and a slot slice per level, all dead by the next level. Buffers are
// cleared before Put so pooled memory never pins dead states; early
// returns may skip a Put, which is only a pool miss.
var (
	cexpPool   = sync.Pool{New: func() any { return new([]cexpansion) }}
	cslotPool  = sync.Pool{New: func() any { return new([]citemSlot) }}
	cmSlotPool = sync.Pool{New: func() any { return new([]cmSlot) }}
)

func cexpGet() []cexpansion {
	return (*cexpPool.Get().(*[]cexpansion))[:0]
}

func cexpPut(exps []cexpansion) {
	clear(exps)
	exps = exps[:0]
	cexpPool.Put(&exps)
}

func cslotsGet(n int) []citemSlot {
	slots := (*cslotPool.Get().(*[]citemSlot))[:0]
	if cap(slots) < n {
		return make([]citemSlot, n)
	}
	slots = slots[:n]
	clear(slots)
	return slots
}

func cslotsPut(slots []citemSlot) {
	clear(slots)
	slots = slots[:0]
	cslotPool.Put(&slots)
}

// cmSlotsGet returns n macro-engine slots whose thread slices are empty
// but keep the capacity they grew in earlier chunks, so an item's threads
// append without allocating once the pool is warm.
func cmSlotsGet(n int) []cmSlot {
	slots := (*cmSlotPool.Get().(*[]cmSlot))[:0]
	if cap(slots) < n {
		grown := make([]cmSlot, n)
		copy(grown, slots[:cap(slots)])
		return grown
	}
	return slots[:n]
}

// cmSlotsPut clears every slot's threads, dropping their failures, fold
// paths and successor buffers, and keeps the emptied thread slices.
func cmSlotsPut(slots []cmSlot) {
	for i := range slots {
		clear(slots[i].threads)
		slots[i].threads = slots[i].threads[:0]
	}
	slots = slots[:0]
	cmSlotPool.Put(&slots)
}

// cthread records the expansion of one schedulable thread of an item, in
// scheduling order. The commit loop replays these through the budget
// checks exactly as the sequential per-thread loop would.
type cthread struct {
	ti        int
	switches  int
	overBound bool // skipped by the context bound (counts as live, no step)
	blocked   bool
	// progressed mirrors the sequential anyProgress accounting: the step
	// had outcomes, whether or not any survived the visited prefilter.
	progressed bool
	fail       *sem.Failure
	exps       []cexpansion
}

// citemSlot is the private output slot for one level item.
type citemSlot struct {
	threads []cthread
	worker  int
}

func checkParallel(c *sem.Compiled, opts Options) *Result {
	workers := opts.SearchWorkers
	res := &Result{}
	init := sem.NewState(c)
	bounded := opts.ContextBound >= 0

	vis := cNewVisited(opts)
	vis.Seen(visitKey(sem.NewFPHasher().Hash(init), opts, -1, 0))
	res.States = 1
	res.PeakFrontier = 1
	nworkers := max(workers, 1)
	perWorker := make([]int, nworkers)
	// The level queue is a FIFO frontier bucket per depth: arrival order
	// is commit order, spilled or resident, and a fully resident level
	// streams back as one chunk — the classic whole-level pass.
	q := cNewQueue(c, opts, false)
	defer q.Close()
	defer func() {
		res.Visited = vis.Len()
		if workers >= 1 {
			res.Parallel = &stats.Parallel{
				Workers:         workers,
				Shards:          vis.Shards(),
				PerWorkerStates: perWorker,
				ShardContention: vis.Contention(),
			}
		}
		res.Memory = cMemoryRecord(opts, vis, q.Stats())
	}()

	hashers := make([]*sem.FPHasher, nworkers)
	for i := range hashers {
		hashers[i] = sem.NewFPHasher()
	}

	q.Push(0, searchState{st: init, nd: newRoot()})
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
			break
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

			// Expansion round: step every schedulable thread of every item.
			slots := cslotsGet(len(level))
			expandItem := func(i, w int) {
				it := level[i]
				expand := -1
				if opts.POR {
					for ti := range it.st.Threads {
						if it.st.Threads[ti].Done() {
							continue
						}
						if invisibleNext(it.st, ti) {
							expand = ti
							break
						}
					}
				}
				var ths []cthread
				for ti := range it.st.Threads {
					if it.st.Threads[ti].Done() {
						continue
					}
					if expand >= 0 && ti != expand {
						continue
					}
					switches := int(it.nd.switches)
					if it.nd.ti >= 0 && int(it.nd.ti) != ti {
						switches++
						if bounded && switches > opts.ContextBound {
							ths = append(ths, cthread{ti: ti, switches: switches, overBound: true})
							continue
						}
					}
					sr := sem.Step(it.st, ti)
					if sr.Failure != nil {
						// The sequential search returns on the first failing
						// thread; later threads of this item never step.
						ths = append(ths, cthread{ti: ti, switches: switches, fail: sr.Failure})
						break
					}
					if sr.Blocked {
						ths = append(ths, cthread{ti: ti, switches: switches, blocked: true})
						continue
					}
					exps := cexpGet()
					for k, out := range sr.Outcomes {
						fp := visitKey(hashers[w].Hash(out.State), opts, ti, switches)
						if vis.Contains(fp) {
							continue
						}
						exps = append(exps, cexpansion{out: out, fp: fp, idx: int32(k)})
					}
					ths = append(ths, cthread{
						ti: ti, switches: switches,
						progressed: len(sr.Outcomes) > 0,
						exps:       exps,
					})
				}
				slots[i] = citemSlot{threads: ths, worker: w}
			}
			if workers <= 1 || len(level) < minParallelLevel {
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

			// Commit: replay the chunk in (item, thread) order through the
			// sequential search's budget checks.
			for i := range level {
				it := level[i]
				sl := &slots[i]
				anyLive, anyProgress := false, false
				for t := range sl.threads {
					th := &sl.threads[t]
					anyLive = true
					if th.overBound {
						continue
					}
					if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
						res.Verdict = ResourceBound
						res.Reason = stats.ReasonSteps
						return res
					}
					res.Steps++
					if th.fail != nil {
						return cFailAt(c, res, it.nd, th.ti, nil, th.fail)
					}
					if th.blocked {
						continue
					}
					anyProgress = anyProgress || th.progressed
					for _, ex := range th.exps {
						if vis.Seen(ex.fp) {
							continue // claimed by an earlier (item, thread) this level
						}
						perWorker[sl.worker]++
						res.States++
						if opts.MaxStates > 0 && res.States > opts.MaxStates {
							res.Verdict = ResourceBound
							res.Reason = stats.ReasonStates
							return res
						}
						q.Push(depth+1, searchState{
							st: ex.out.State,
							nd: &node{
								parent: it.nd, idx: ex.idx, ti: int32(th.ti),
								switches: int32(th.switches), depth: depth + 1,
							},
						})
						pushed++
						if fl := (total - 1 - (base + i)) + pushed; fl > res.PeakFrontier {
							res.PeakFrontier = fl
						}
					}
					if th.exps != nil {
						cexpPut(th.exps)
						th.exps = nil
					}
				}
				if anyLive && !anyProgress {
					res.Deadlocks++
				}
			}
			cslotsPut(slots)
			base += len(level)
		}
		bkt.Close()
		opts.Collector.Sample(res.States, res.Steps, pushed, depth, vis.Len())
	}
	res.Verdict = Safe
	return res
}
