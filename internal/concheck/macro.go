package concheck

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/frontier"
	"repro/internal/sem"
	"repro/internal/stats"
	"repro/internal/visited"
)

// Macro-step compression (sem.MacroStep) folds each maximal deterministic
// run into one transition, so the search stores, fingerprints, and
// visited-checks only decision-point states. Folding is gated on the
// stepped thread being the sole live thread of both the current state
// and the successor (sem.MacroStep enforces it), so multi-threaded states
// — the scheduling points whose interleavings this checker exists to
// cover — never fold and the explored interleaving set is untouched. What
// compresses are the purely sequential stretches: the run-up before
// threads spawn and the run-down after all but one finish, which the KISS
// instrumentation inflates most — and the whole of a one-threaded
// program, such as every KISS translation the sequential checker runs.
//
//   - checkMacroSeq is the sequential depth-first search. For a sole-live
//     state the per-thread loop degenerates to one thread, and the
//     per-statement DFS pops a just-pushed single successor immediately,
//     so it already traverses deterministic runs contiguously; folding
//     them changes which states are *stored* but not the traversal order,
//     and the fold limit is capped by the remaining depth/step budget, so
//     the verdict, failure position, trace, and MaxSteps/MaxDepth trip
//     points are identical to the per-statement search.
//
//   - checkMacroLevel is the breadth-first engine, used for BFS and for
//     SearchWorkers >= 1 (at 0 it runs the same code inline, which keeps
//     the sequential BFS and the parallel search bit-identical on every
//     deterministic counter). Compressed edges span several micro depths,
//     so a flat level queue would order states by *decision* depth and
//     change which failure is "shortest". Instead the frontier is a
//     bucket queue keyed by micro depth, each bucket sorted by hop key,
//     which orders it as the padded (thread, successor-index) path does —
//     exactly the per-statement BFS's within-level order — and a failure
//     discovered mid-run at micro depth F is held as a candidate until
//     every stored state shallower than F has been expanded, then
//     reported lex-first among depth-F competitors. That reproduces the
//     per-statement BFS's first failure bit-for-bit.
//
// Soundness of the fold (see DESIGN.md): a deterministic run has no
// branching, so its intermediate states can reach exactly the suffix of
// the run; storing only the endpoints preserves the reachable decision
// states and every failure. A run re-executed through an intermediate
// state another path also crosses re-derives the same suffix and is
// pruned at the endpoint by the visited set.

// cMacroLimit caps a fold by the remaining depth and step budget so that
// failures and budget trips land on exactly the transition where the
// per-statement search puts them.
func cMacroLimit(opts Options, depth, steps int) int {
	limit := sem.MaxMacroRun
	if opts.MaxDepth > 0 {
		if r := opts.MaxDepth - depth; r < limit {
			limit = r
		}
	}
	if opts.MaxSteps > 0 {
		if r := opts.MaxSteps - steps; r < limit {
			limit = r
		}
	}
	return limit
}

// checkMacroSeq is the sequential depth-first interleaving search with
// macro-step compression.
func checkMacroSeq(c *sem.Compiled, opts Options) *Result {
	res := &Result{}
	init := sem.NewState(c)
	bounded := opts.ContextBound >= 0

	hasher := sem.NewFPHasher()
	// Exact mode keeps the plain map (the seed's representation); compact
	// mode swaps in the Bloom-filter store.
	var vis visited.Store
	if opts.VisitedCompact {
		vis = cNewVisited(opts)
	}
	visitedSet := map[uint64]struct{}{}
	visLen := func() int {
		if vis != nil {
			return vis.Len()
		}
		return len(visitedSet)
	}
	seen := func(s *sem.State, lastTh, switches int) bool {
		fp := visitKey(hasher.Hash(s), opts, lastTh, switches)
		if vis != nil {
			return vis.Seen(fp)
		}
		if _, ok := visitedSet[fp]; ok {
			return true
		}
		visitedSet[fp] = struct{}{}
		return false
	}
	seen(init, -1, 0)
	res.States = 1
	res.StatesStepped = 1

	stack := []searchState{{st: init, nd: newRoot()}}
	res.PeakFrontier = 1
	defer func() {
		res.Visited = visLen()
		if vis != nil {
			res.Memory = cMemoryRecord(opts, vis, frontier.Stats{})
		}
	}()

	ctxCountdown := 1 // poll the context on the first iteration
	for len(stack) > 0 {
		if opts.Context != nil {
			if ctxCountdown--; ctxCountdown <= 0 {
				ctxCountdown = ctxPollStride
				if err := opts.Context.Err(); err != nil {
					res.Verdict = ResourceBound
					res.Reason = reasonFor(err)
					return res
				}
			}
		}
		cur := stack[len(stack)-1]
		stack[len(stack)-1] = searchState{} // unpin the popped state
		stack = stack[:len(stack)-1]
		if cur.nd.depth > res.PeakDepth {
			res.PeakDepth = cur.nd.depth
		}
		opts.Collector.Sample(res.States, res.Steps, len(stack), cur.nd.depth, visLen())

		if opts.MaxDepth > 0 && cur.nd.depth >= opts.MaxDepth {
			continue
		}

		expand := -1
		if opts.POR {
			for ti := range cur.st.Threads {
				if cur.st.Threads[ti].Done() {
					continue
				}
				if invisibleNext(cur.st, ti) {
					expand = ti
					break
				}
			}
		}

		anyLive, anyProgress := false, false
		for ti := range cur.st.Threads {
			if cur.st.Threads[ti].Done() {
				continue
			}
			if expand >= 0 && ti != expand {
				continue
			}
			anyLive = true

			switches := int(cur.nd.switches)
			if cur.nd.ti >= 0 && int(cur.nd.ti) != ti {
				switches++
				if bounded && switches > opts.ContextBound {
					continue
				}
			}

			if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
				res.Verdict = ResourceBound
				res.Reason = stats.ReasonSteps
				return res
			}
			mr := sem.MacroStep(cur.st, ti, cMacroLimit(opts, cur.nd.depth, res.Steps))
			res.Steps += mr.Stepped
			res.StatesStepped += len(mr.PrefixIdx)
			if mr.Failure != nil {
				return cFailAt(c, res, cur.nd, ti, mr.PrefixIdx, mr.Failure)
			}
			if mr.Blocked {
				// Blocked after a fold: the chain's endpoint is the blocked
				// state the per-statement search would have stored, stepped,
				// and counted against Deadlocks — mark no progress so the
				// count agrees (the folded item stands in for it).
				continue
			}
			// A non-blocked, non-failed step always has outcomes (pruning
			// may drop them, but the per-statement search progressed).
			anyProgress = true
			for k, out := range mr.Outcomes {
				if seen(out.State, ti, switches) {
					continue
				}
				res.States++
				res.StatesStepped++
				if opts.MaxStates > 0 && res.States > opts.MaxStates {
					res.Verdict = ResourceBound
					res.Reason = stats.ReasonStates
					return res
				}
				stack = append(stack, searchState{
					st: out.State,
					nd: &node{
						parent:    cur.nd,
						prefixIdx: mr.PrefixIdx,
						idx:       mr.OutIdx[k],
						ti:        int32(ti),
						switches:  int32(switches),
						depth:     cur.nd.depth + len(mr.PrefixIdx) + 1,
					},
				})
				if len(stack) > res.PeakFrontier {
					res.PeakFrontier = len(stack)
				}
			}
		}
		if anyLive && !anyProgress {
			res.Deadlocks++
		}
	}
	res.Verdict = Safe
	return res
}

// pathEntry packs a (thread, raw successor index) pair into one ordered
// key: the per-statement BFS emits an item's successors in ascending
// (thread, index) order, which this encoding preserves.
func pathEntry(ti, idx int32) int32 {
	return ti<<16 | idx
}

// cPathLess is lexicographic order on padded (thread, successor-index)
// paths; folded positions use the folding thread's id. The engines
// compare key-encoded hop keys with bytes.Compare instead (see
// cAppendHopKey); cPathLess is the specification that order is tested
// against.
func cPathLess(a, b []int32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// cMacroCand is a mid-run failure deferred until every stored state
// shallower than its micro depth has been expanded. key is the origin
// node's hop key plus the failing thread's first folded entry. Only a
// sole-live item folds, and its failing fold is its only expansion, so
// nothing at the candidate's depth descends from the origin: the key and
// a frame's (or another candidate's) first differ under their lowest
// common ancestor, where the padded paths do.
type cMacroCand struct {
	depth     int
	key       []byte
	nd        *node
	ti        int
	prefixIdx []int32
	fail      *sem.Failure
}

func cMinCand(cands []cMacroCand) int {
	h := -1
	for i := range cands {
		if h < 0 || cands[i].depth < cands[h].depth ||
			(cands[i].depth == cands[h].depth && bytes.Compare(cands[i].key, cands[h].key) < 0) {
			h = i
		}
	}
	return h
}

func cFailFromCand(c *sem.Compiled, res *Result, cd *cMacroCand) *Result {
	return cFailAt(c, res, cd.nd, cd.ti, cd.prefixIdx, cd.fail)
}

// cmThread records the (possibly folded) expansion of one schedulable
// thread of a bucket item.
type cmThread struct {
	ti        int
	switches  int
	overBound bool
	blocked   bool
	fail      *sem.Failure
	prefixIdx []int32
	stepped   int
	exps      []cexpansion
}

// cmSlot is the private output slot for one bucket item.
type cmSlot struct {
	threads []cmThread
	worker  int
}

// cDrainHook, when set, sees every chunk checkMacroLevel drains, with
// its order keys; tests use it to check the bucket order.
var cDrainHook func(depth int, chunk []searchState, keys [][]byte)

// SetDrainHook installs f as the drain hook, handing it each drained
// frame's padded path as read back from its spill encoding (nil removes
// it). It lets the tests of seqcheck, which runs on these engines, check
// the bucket order.
func SetDrainHook(f func(depth int, paths [][]int32, keys [][]byte)) {
	if f == nil {
		cDrainHook = nil
		return
	}
	cDrainHook = func(depth int, chunk []searchState, keys [][]byte) {
		paths := make([][]int32, len(chunk))
		for i, s := range chunk {
			buf, _ := cAppendPaddedPath(nil, nil, s.nd)
			path, rest := cDecodePaddedPath(buf)
			if len(rest) != 0 {
				panic("concheck: padded path encoding has trailing bytes")
			}
			paths[i] = path
		}
		f(depth, paths, keys)
	}
}

// checkMacroLevel is the micro-depth bucket BFS with macro-step
// compression; SearchWorkers 0 runs it inline, >= 1 expands buckets with
// the worker pool (the commit loop is single-threaded either way, so
// every deterministic counter is identical at every worker count).
//
// The bucket queue is a frontier.Queue in ordered mode: each bucket is
// kept in the per-statement BFS's within-level order by hop key, resident
// or spilled. A fully resident bucket streams back as a single chunk —
// the classic whole-bucket pass — while a spilled one arrives in
// frontierChunk pieces merged from disk in exactly the same order, so
// chunking never reorders commits. The fold limit and the bucket's
// competing failure candidate are fixed before the first chunk, which
// keeps them identical to the one-pass computation.
func checkMacroLevel(c *sem.Compiled, opts Options) *Result {
	workers := opts.SearchWorkers
	res := &Result{}
	init := sem.NewState(c)
	bounded := opts.ContextBound >= 0

	vis := cNewVisited(opts)
	vis.Seen(visitKey(sem.NewFPHasher().Hash(init), opts, -1, 0))
	res.States = 1
	res.StatesStepped = 1
	res.PeakFrontier = 1
	nworkers := max(workers, 1)
	perWorker := make([]int, nworkers)
	q := cNewQueue(c, opts, true)
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
	var cands []cMacroCand

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
		if h := cMinCand(cands); h >= 0 && cands[h].depth < depth {
			return cFailFromCand(c, res, &cands[h])
		}
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			break // buckets come off the queue in increasing depth
		}

		bkt := q.Drain(depth)

		// Fixed for every chunk of this bucket: the limit reads the step
		// counter as of the bucket's start, and candidates appended during
		// this bucket's commit are strictly deeper.
		limit := cMacroLimit(opts, depth, res.Steps)
		candHere := -1
		for i := range cands {
			if cands[i].depth == depth &&
				(candHere < 0 || bytes.Compare(cands[i].key, cands[candHere].key) < 0) {
				candHere = i
			}
		}

		for {
			bucket, keys := bkt.Next(frontierChunk)
			if len(bucket) == 0 {
				break
			}
			if cDrainHook != nil {
				cDrainHook(depth, bucket, keys)
			}

			// Expansion round: step (and fold) every schedulable thread of
			// every item, read-only against the visited set.
			slots := make([]cmSlot, len(bucket))
			expandItem := func(i, w int) {
				it := bucket[i]
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
				var ths []cmThread
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
							ths = append(ths, cmThread{ti: ti, switches: switches, overBound: true})
							continue
						}
					}
					mr := sem.MacroStep(it.st, ti, limit)
					th := cmThread{
						ti: ti, switches: switches,
						fail:      mr.Failure,
						prefixIdx: mr.PrefixIdx,
						stepped:   mr.Stepped,
						blocked:   mr.Blocked,
					}
					if mr.Failure != nil {
						// Folding only happens on sole-live items, so a failing
						// thread is this item's only schedulable thread either
						// way; stop as the sequential search does.
						ths = append(ths, th)
						break
					}
					if !mr.Blocked {
						exps := cexpGet()
						for k, out := range mr.Outcomes {
							fp := visitKey(hashers[w].Hash(out.State), opts, ti, switches)
							if vis.Contains(fp) {
								continue
							}
							exps = append(exps, cexpansion{out: out, fp: fp, idx: mr.OutIdx[k]})
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

			// Commit: replay the chunk in sorted (item, thread) order
			// through the sequential search's budget checks.
			for i := range bucket {
				it := bucket[i]
				sl := &slots[i]
				if candHere >= 0 && bytes.Compare(cands[candHere].key, keys[i]) < 0 {
					return cFailFromCand(c, res, &cands[candHere])
				}
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
						// keys[i] is reused by the next chunk; copy it.
						cands = append(cands, cMacroCand{
							depth:     depth + len(th.prefixIdx),
							key:       cAppendPathEntry(bytes.Clone(keys[i]), pathEntry(int32(th.ti), th.prefixIdx[0])),
							nd:        it.nd,
							ti:        th.ti,
							prefixIdx: th.prefixIdx,
							fail:      th.fail,
						})
						// The chain progressed before failing; the per-statement
						// search would not count this item as a deadlock.
						anyProgress = true
						continue
					}
					if th.blocked {
						continue
					}
					anyProgress = true
					for _, ex := range th.exps {
						if vis.Seen(ex.fp) {
							continue
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
						q.Push(nd.depth, searchState{st: ex.out.State, nd: nd})
					}
					cexpPut(th.exps)
					th.exps = nil
				}
				if anyLive && !anyProgress {
					res.Deadlocks++
				}
			}
		}
		bkt.Close()
		if candHere >= 0 {
			return cFailFromCand(c, res, &cands[candHere])
		}
		if q.Len() > res.PeakFrontier {
			res.PeakFrontier = q.Len()
		}
		opts.Collector.Sample(res.States, res.Steps, q.Len(), depth, vis.Len())
	}
	if h := cMinCand(cands); h >= 0 {
		return cFailFromCand(c, res, &cands[h])
	}
	res.Verdict = Safe
	return res
}
