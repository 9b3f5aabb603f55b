package seqcheck

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
// visited-checks only decision-point states. Two engines live here:
//
//   - checkMacroDFS, the sequential depth-first search. The per-statement
//     DFS pops a just-pushed single successor immediately, so it already
//     traverses deterministic runs contiguously; folding them changes
//     which states are *stored* but not the traversal order, and the fold
//     limit is capped by the remaining depth/step budget, so the verdict,
//     failure position, counterexample trace, and MaxSteps/MaxDepth trip
//     points are identical to the per-statement DFS.
//
//   - checkMacroBFS, the breadth-first engine used for BFS and for
//     SearchWorkers >= 1 (at 0 it runs the same code inline, which keeps
//     the sequential BFS and the parallel search bit-identical on every
//     deterministic counter). Compressed edges span several micro depths,
//     so a flat level queue would order states by *decision* depth and
//     change which failure is "shortest". Instead the frontier is a
//     bucket queue keyed by micro depth, each bucket sorted by hop key,
//     which orders it as the padded successor-index path does — exactly
//     the per-statement BFS's within-level order — and a failure
//     discovered mid-run at micro depth F is held
//     as a candidate until every stored state shallower than F has been
//     expanded, then reported lex-first among depth-F competitors. That
//     reproduces the per-statement BFS's first failure bit-for-bit.
//
// Soundness of the fold (see DESIGN.md): a deterministic run has no
// branching, so its intermediate states can reach exactly the suffix of
// the run; storing only the endpoints preserves the reachable decision
// states and every failure. A run re-executed through an intermediate
// state another path also crosses re-derives the same suffix and is
// pruned at the endpoint by the visited set.

// macroLimit caps a fold by the remaining depth and step budget so that
// failures and budget trips land on exactly the transition where the
// per-statement search puts them.
func macroLimit(opts Options, depth, steps int) int {
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

// checkMacroDFS is the sequential depth-first search with macro-step
// compression.
func checkMacroDFS(c *sem.Compiled, opts Options) *Result {
	res := &Result{}
	init := sem.NewState(c)

	hasher := sem.NewFPHasher()
	// Exact mode keeps the plain map (the seed's representation); compact
	// mode swaps in the Bloom-filter store.
	var vis visited.Store
	if opts.VisitedCompact {
		vis = newVisited(opts)
	}
	visitedSet := map[uint64]struct{}{}
	visLen := func() int {
		if vis != nil {
			return vis.Len()
		}
		return len(visitedSet)
	}
	seen := func(st *sem.State) bool {
		fp := hasher.Hash(st)
		if vis != nil {
			return vis.Seen(fp)
		}
		if _, ok := visitedSet[fp]; ok {
			return true
		}
		visitedSet[fp] = struct{}{}
		return false
	}
	seen(init)

	type frame struct {
		st *sem.State
		nd *node
	}
	stack := []frame{{st: init, nd: &node{}}}
	res.States = 1
	res.StatesStepped = 1
	res.PeakFrontier = 1
	defer func() {
		res.Visited = visLen()
		if vis != nil {
			res.Memory = memoryRecord(opts, vis, frontier.Stats{})
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
		stack[len(stack)-1] = frame{}
		stack = stack[:len(stack)-1]
		if cur.nd.depth > res.PeakDepth {
			res.PeakDepth = cur.nd.depth
		}
		opts.Collector.Sample(res.States, res.Steps, len(stack), cur.nd.depth, visLen())

		if cur.st.Threads[0].Done() {
			continue
		}
		if opts.MaxDepth > 0 && cur.nd.depth >= opts.MaxDepth {
			continue
		}
		if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
			res.Verdict = ResourceBound
			res.Reason = stats.ReasonSteps
			return res
		}

		mr := sem.MacroStep(cur.st, 0, macroLimit(opts, cur.nd.depth, res.Steps))
		res.Steps += mr.Stepped
		res.StatesStepped += len(mr.PrefixIdx)
		if mr.Failure != nil {
			return failAt(c, res, cur.nd, mr.PrefixIdx, mr.Failure)
		}
		// Blocked (false assume) prunes the path in sequential semantics.
		for k, out := range mr.Outcomes {
			if seen(out.State) {
				continue
			}
			res.States++
			res.StatesStepped++
			if opts.MaxStates > 0 && res.States > opts.MaxStates {
				res.Verdict = ResourceBound
				res.Reason = stats.ReasonStates
				return res
			}
			stack = append(stack, frame{
				st: out.State,
				nd: &node{
					parent:    cur.nd,
					prefixIdx: mr.PrefixIdx,
					idx:       mr.OutIdx[k],
					depth:     cur.nd.depth + len(mr.PrefixIdx) + 1,
				},
			})
			if len(stack) > res.PeakFrontier {
				res.PeakFrontier = len(stack)
			}
		}
	}
	res.Verdict = Safe
	return res
}

// pathLess is lexicographic order on padded successor-index paths: for
// each edge, the folded positions' raw indices then the final edge's raw
// index. Two states at the same micro depth have equal-length paths, and
// the per-statement BFS builds each level in exactly lexicographic path
// order, so this comparison reproduces its within-level order. The
// engines compare key-encoded hop keys with bytes.Compare instead (see
// appendHopKey); pathLess is the specification that order is tested
// against.
func pathLess(a, b []int32) bool {
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

// macroCand is a failure discovered mid-run: the per-statement BFS would
// report it while processing micro depth `depth`, so it is held until
// every stored state shallower than that has been expanded. key is the
// origin node's hop key. A failing fold has no children, so nothing at
// the candidate's depth descends from the origin: its hop key and a
// frame's (or another candidate's) first differ under their lowest
// common ancestor, where the failing state's padded path and theirs do.
type macroCand struct {
	depth     int
	key       []byte // hop key of the origin item
	nd        *node  // origin item
	prefixIdx []int32
	fail      *sem.Failure
}

func minCand(cands []macroCand) int {
	h := -1
	for i := range cands {
		if h < 0 || cands[i].depth < cands[h].depth ||
			(cands[i].depth == cands[h].depth && bytes.Compare(cands[i].key, cands[h].key) < 0) {
			h = i
		}
	}
	return h
}

func failFromCand(c *sem.Compiled, res *Result, cd *macroCand) *Result {
	return failAt(c, res, cd.nd, cd.prefixIdx, cd.fail)
}

// macroSlot is the private output slot for one bucket item.
type macroSlot struct {
	fail      *sem.Failure
	prefixIdx []int32
	exps      []expansion
	stepped   int
	worker    int
	done      bool // the item's thread had terminated: nothing stepped
}

// drainHook, when set, sees every chunk checkMacroBFS drains, with its
// order keys; tests use it to check the bucket order.
var drainHook func(depth int, chunk []pframe, keys [][]byte)

// checkMacroBFS is the micro-depth bucket BFS with macro-step compression;
// SearchWorkers 0 runs it inline, >= 1 expands buckets with the worker
// pool (the commit loop is single-threaded either way, so every
// deterministic counter is identical at every worker count).
//
// The bucket queue is a frontier.Queue in ordered mode: each bucket is
// kept in the per-statement BFS's within-level order by hop key, resident
// or spilled. A fully resident bucket streams back as a single
// chunk — the classic whole-bucket pass — while a spilled one arrives in
// frontierChunk pieces merged from disk in exactly the same order, so
// chunking never reorders commits. The fold limit and the bucket's
// competing failure candidate are fixed before the first chunk, which
// keeps them identical to the one-pass computation.
func checkMacroBFS(c *sem.Compiled, opts Options) *Result {
	workers := opts.SearchWorkers
	res := &Result{}
	init := sem.NewState(c)

	vis := newVisited(opts)
	vis.Seen(sem.NewFPHasher().Hash(init))
	res.States = 1
	res.StatesStepped = 1
	res.PeakFrontier = 1
	nworkers := workers
	if nworkers < 1 {
		nworkers = 1
	}
	perWorker := make([]int, nworkers)
	q := newSeqQueue(c, opts, true)
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
		res.Memory = memoryRecord(opts, vis, q.Stats())
	}()

	hashers := make([]*sem.FPHasher, nworkers)
	for i := range hashers {
		hashers[i] = sem.NewFPHasher()
	}

	q.Push(0, pframe{st: init, nd: &node{}})
	var cands []macroCand

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
		// A pending candidate shallower than every remaining stored state
		// is the first failure the per-statement BFS reports.
		if h := minCand(cands); h >= 0 && cands[h].depth < depth {
			return failFromCand(c, res, &cands[h])
		}
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			// Buckets come off the queue in increasing depth: nothing at
			// or beyond the depth bound is ever expanded.
			break
		}

		bkt := q.Drain(depth)

		// The fold limit and this bucket's competing candidate are fixed
		// for every chunk: the limit reads the step counter as of the
		// bucket's start, and candidates appended during this bucket's
		// commit are strictly deeper (depth + a nonempty prefix).
		limit := macroLimit(opts, depth, res.Steps)
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
			if drainHook != nil {
				drainHook(depth, bucket, keys)
			}

			// Expansion round (read-only against the visited set).
			slots := make([]macroSlot, len(bucket))
			expandItem := func(i, w int) {
				it := bucket[i]
				if it.st.Threads[0].Done() {
					slots[i] = macroSlot{done: true}
					return
				}
				mr := sem.MacroStep(it.st, 0, limit)
				sl := macroSlot{
					prefixIdx: mr.PrefixIdx,
					stepped:   mr.Stepped,
					worker:    w,
					fail:      mr.Failure,
				}
				if mr.Failure == nil {
					exps := expGet()
					for k, out := range mr.Outcomes {
						fp := hashers[w].Hash(out.State)
						if vis.Contains(fp) {
							continue
						}
						exps = append(exps, expansion{out: out, fp: fp, idx: mr.OutIdx[k]})
					}
					sl.exps = exps
				}
				slots[i] = sl
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

			// Commit: replay the chunk in bucket order through the budget
			// checks; only this loop mutates the visited set and counters.
			for i := range bucket {
				it := bucket[i]
				sl := &slots[i]
				if candHere >= 0 && bytes.Compare(cands[candHere].key, keys[i]) < 0 {
					return failFromCand(c, res, &cands[candHere])
				}
				if sl.done {
					continue
				}
				if opts.MaxSteps > 0 && res.Steps >= opts.MaxSteps {
					res.Verdict = ResourceBound
					res.Reason = stats.ReasonSteps
					return res
				}
				res.Steps += sl.stepped
				res.StatesStepped += len(sl.prefixIdx)
				if sl.fail != nil {
					if len(sl.prefixIdx) == 0 {
						// Failed at this depth: every lex-smaller competitor
						// has already been flushed, so this is the
						// per-statement BFS's first failure.
						return failAt(c, res, it.nd, nil, sl.fail)
					}
					// Failed mid-run at a deeper micro depth: defer — a
					// shallower or lex-smaller failure may still exist.
					// keys[i] is reused by the next chunk; copy it.
					cands = append(cands, macroCand{
						depth:     depth + len(sl.prefixIdx),
						key:       bytes.Clone(keys[i]),
						nd:        it.nd,
						prefixIdx: sl.prefixIdx,
						fail:      sl.fail,
					})
					continue
				}
				for _, ex := range sl.exps {
					if vis.Seen(ex.fp) {
						continue // claimed by an earlier item of some bucket
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
						prefixIdx: sl.prefixIdx,
						idx:       ex.idx,
						depth:     depth + len(sl.prefixIdx) + 1,
					}
					q.Push(nd.depth, pframe{st: ex.out.State, nd: nd})
				}
				expPut(sl.exps)
				sl.exps = nil
			}
		}
		bkt.Close()
		// Depth-bucket candidates with paths beyond the last item beat
		// everything deeper.
		if candHere >= 0 {
			return failFromCand(c, res, &cands[candHere])
		}
		if q.Len() > res.PeakFrontier {
			res.PeakFrontier = q.Len()
		}
		opts.Collector.Sample(res.States, res.Steps, q.Len(), depth, vis.Len())
	}
	if h := minCand(cands); h >= 0 {
		return failFromCand(c, res, &cands[h])
	}
	res.Verdict = Safe
	return res
}
