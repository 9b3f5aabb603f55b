package concheck

import (
	"sync"
	"sync/atomic"

	"repro/internal/sem"
	"repro/internal/stats"
)

// The breadth-first search (checkLevel; SearchWorkers 0 runs it inline)
// is one level engine for both step modes. It drains the frontier one
// micro-depth bucket at a time, in chunks, and splits each chunk into two
// alternating phases:
//
//   - an expansion round, where the worker pool claims items (states) off
//     the chunk by atomic index, steps *every* schedulable thread of each
//     through cStep (honoring the context bound), fingerprints each
//     successor, and drops successors already in the sharded visited set
//     (a read-only prefilter — the set is frozen during the round, so the
//     answer is deterministic);
//   - a single-threaded commit loop, which replays the chunk in (item,
//     thread) order through exactly the budget checks of a sequential
//     BFS: steps budget before each step, first failure wins at the
//     lowest (item, thread), within-level duplicates resolved in order
//     via Seen, states budget per fresh state.
//
// Every bucket drains in arrival order: the order the commit loop pushed
// its frames, bucket by bucket, then item, thread and outcome.
// Per-statement edges are one micro step long, so every successor lands
// in the next bucket; the macro search's folded edges land deeper, and a
// failure met mid-fold is held as a candidate until its micro depth
// comes up (macro.go).
//
// Because the commit loop alone mutates the visited set and all search
// counters, the verdict, trace, and deterministic metrics are
// bit-identical at every worker count; the workers only decide wall-clock
// and the diagnostics in Result.Parallel. The price is that a chunk whose
// commit trips a budget has expanded its remaining items for nothing —
// bounded waste, one chunk's worth.
//
// On a full exploration the depth-first and breadth-first searches report
// the same verdict (failure reachability does not depend on search
// order); runs that trip a budget cover different prefixes of the state
// space.

// minParallelLevel is the chunk size below which the coordinator expands
// inline rather than paying worker fan-out.
const minParallelLevel = 4

// workerPollStride is how many items a worker claims between context
// polls.
const workerPollStride = 64

// cexpansion is one prefiltered successor: the state plus its visited
// key (see visitKey), hashed worker-side so the commit loop never
// hashes, and its raw index in the unpruned outcome list.
type cexpansion struct {
	st  *sem.State
	fp  uint64
	idx int32
}

// cmThread records the (possibly folded) expansion of one schedulable
// thread of a bucket item, in scheduling order. The commit loop replays
// these through the budget checks exactly as the depth-first per-thread
// loop would.
type cmThread struct {
	ti        int
	switches  int
	overBound bool // skipped by the context bound (counts as live, no step)
	blocked   bool
	// progressed is cProgressed's verdict on the step, whether or not any
	// successor survived the visited prefilter.
	progressed bool
	fail       *sem.Failure
	prefixIdx  []int32
	stepped    int
	exps       []cexpansion
}

// cmSlot is the private output slot for one bucket item.
type cmSlot struct {
	threads []cmThread
	worker  int
}

// Buffer pools of the expansion rounds: each round allocates a successor
// buffer per thread and a slot slice per chunk, all dead by the next
// chunk. Buffers are cleared before Put so pooled memory never pins dead
// states; early returns may skip a Put, which is only a pool miss.
var (
	cexpPool   = sync.Pool{New: func() any { return new([]cexpansion) }}
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

// cmSlotsGet returns n slots whose thread slices are empty but keep the
// capacity they grew in earlier chunks, so an item's threads append
// without allocating once the pool is warm.
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

// checkLevel is the breadth-first search; SearchWorkers 0 runs it inline,
// >= 1 expands chunks with the worker pool (the commit loop is
// single-threaded either way, so every deterministic counter is identical
// at every worker count).
//
// The bucket queue is a frontier.Queue, resident or spilled. A fully
// resident bucket streams back as a single chunk — the classic
// whole-bucket pass — while a spilled one arrives in frontierChunk pieces
// read back from disk in exactly the same order, so chunking never
// reorders commits. The fold limit is fixed before the first chunk, which
// keeps it identical to the one-pass computation.
func checkLevel(c *sem.Compiled, opts Options) *Result {
	workers := opts.SearchWorkers
	perStmt := opts.DisableMacroSteps
	res := &Result{}
	init := sem.NewState(c)
	bounded := opts.ContextBound >= 0

	nworkers := max(workers, 1)
	hashers := make([]*sem.FPHasher, nworkers)
	for i := range hashers {
		hashers[i] = sem.NewFPHasher()
	}
	folders := make([]sem.Folder, nworkers)
	audit := newAudit(opts) // AuditFingerprints runs at workers 0 only
	hash := func(w int, s *sem.State, lastTh, switches int) uint64 {
		fp := visitKey(hashers[w].Hash(s), opts, lastTh, switches)
		if audit != nil && audit.collides(fp, s, lastTh, switches) {
			res.HashCollisions++
		}
		return fp
	}

	vis := cNewVisited(opts)
	vis.Seen(hash(0, init, -1, 0))
	res.States = 1
	res.StatesStepped = 1
	res.PeakFrontier = 1
	perWorker := make([]int, nworkers)
	q := cNewQueue(c, opts)
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
		res.Memory = cMemoryRecord(vis, opts.FrontierBudget, q.Stats())
	}()

	q.Push(0, searchState{st: init, nd: newRoot()})
	// best is the shallowest mid-fold failure found so far, the first
	// found on a tie; it is reported once its micro depth comes up.
	var best *cMacroCand

	for q.Len() > 0 {
		depth, _ := q.MinDepth()
		res.PeakDepth = depth

		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				res.Verdict = ResourceBound
				res.Reason = reasonFor(err)
				return res
			}
		}
		if best != nil && best.depth <= depth {
			return cFailFromCand(c, res, best)
		}
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			break // buckets come off the queue in increasing depth
		}

		bkt := q.Drain(depth)
		left := bkt.Len() // items of this bucket not yet committed

		// Fixed for every chunk of this bucket: the limit reads the step
		// counter as of the bucket's start.
		limit := cMacroLimit(opts, depth, res.Steps)

		for {
			bucket := bkt.Next(frontierChunk)
			if len(bucket) == 0 {
				break
			}

			// Expansion round: step (and fold) every schedulable thread of
			// every item, read-only against the visited set.
			slots := cmSlotsGet(len(bucket))
			expandItem := func(i, w int) {
				it := bucket[i]
				ths := slots[i].threads[:0]
				for ti := range it.st.Threads {
					if it.st.Threads[ti].Done() {
						continue
					}
					switches := int(it.nd.switches)
					if it.nd.ti >= 0 && int(it.nd.ti) != ti {
						switches++
						if bounded && switches > opts.ContextBound {
							ths = append(ths, cmThread{ti: ti, switches: switches, overBound: true})
							continue
						}
					}
					// A sole-live item is handed to the fold: the bucket
					// gave it, resident or restored from a spill, to this
					// worker alone, ti is the only thread stepped from it,
					// and the commit loop reads only its node.
					mr := cStep(&folders[w], it.st, ti, limit, perStmt, it.st.SoleLive(ti))
					th := cmThread{
						ti: ti, switches: switches,
						fail:      mr.Failure,
						prefixIdx: mr.PrefixIdx,
						stepped:   mr.Stepped,
						blocked:   mr.Blocked,
					}
					if mr.Failure != nil {
						// The depth-first search returns on the first failing
						// thread, and a fold happens only on a sole-live item;
						// later threads of this item never step.
						ths = append(ths, th)
						break
					}
					if !mr.Blocked {
						th.progressed = cProgressed(&mr, perStmt)
						exps := cexpGet()
						for k, out := range mr.Outcomes {
							fp := hash(w, out, ti, switches)
							if vis.Contains(fp) {
								continue
							}
							exps = append(exps, cexpansion{st: out, fp: fp, idx: mr.OutIdx[k]})
						}
						th.exps = exps
					}
					ths = append(ths, th)
				}
				slots[i] = cmSlot{threads: ths, worker: w}
			}
			if workers <= 1 || len(bucket) < minParallelLevel {
				for i := range bucket {
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
							if i >= len(bucket) || stop.Load() {
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
			// depth-first search's budget checks.
			for i := range bucket {
				it := bucket[i]
				sl := &slots[i]
				left--
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
					res.Steps += th.stepped
					res.StatesStepped += len(th.prefixIdx)
					if th.fail != nil {
						if len(th.prefixIdx) == 0 {
							return cFailAt(c, res, it.nd, th.ti, nil, th.fail)
						}
						if d := depth + len(th.prefixIdx); best == nil || d < best.depth {
							best = &cMacroCand{depth: d, nd: it.nd, ti: th.ti, prefixIdx: th.prefixIdx, fail: th.fail}
						}
						// The chain progressed before failing; the per-statement
						// search would not count this item as a deadlock.
						anyProgress = true
						continue
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
						res.StatesStepped++
						if opts.MaxStates > 0 && res.States > opts.MaxStates {
							res.Verdict = ResourceBound
							res.Reason = stats.ReasonStates
							return res
						}
						nd := &node{
							parent:    it.nd,
							prefixIdx: th.prefixIdx,
							idx:       ex.idx,
							ti:        int32(th.ti),
							switches:  int32(th.switches),
							depth:     depth + len(th.prefixIdx) + 1,
						}
						q.Push(nd.depth, searchState{st: ex.st, nd: nd})
						if perStmt {
							// The per-statement search measures its frontier
							// after every push: the level's uncommitted items
							// plus the next level so far.
							res.PeakFrontier = max(res.PeakFrontier, left+q.Len())
						}
					}
					cexpPut(th.exps)
					th.exps = nil
				}
				if anyLive && !anyProgress {
					res.Deadlocks++
				}
			}
			cmSlotsPut(slots)
		}
		bkt.Close()
		res.PeakFrontier = max(res.PeakFrontier, q.Len())
		opts.Collector.Sample(res.States, res.Steps, q.Len(), depth, vis.Len())
	}
	if best != nil {
		return cFailFromCand(c, res, best)
	}
	res.Verdict = Safe
	return res
}
