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

// Macro-step compression for the interleaving search. Folding is gated on
// the stepped thread being the sole live thread of both the current state
// and the successor (sem.MacroStep enforces it), so multi-threaded states
// — the scheduling points whose interleavings this checker exists to
// cover — never fold and the explored interleaving set is untouched. What
// compresses are the purely sequential stretches: the run-up before
// threads spawn and the run-down after all but one finish, which the KISS
// instrumentation inflates most.
//
//   - checkMacroSeq is the sequential depth-first search. For a sole-live
//     state the per-thread loop degenerates to one thread, so the
//     uncompressed DFS pops a folded chain contiguously and the verdict,
//     failure position, trace, and MaxSteps/MaxDepth trip points are
//     identical to the per-statement search.
//
//   - checkMacroLevel is the bucket-queue BFS used for SearchWorkers >= 1,
//     mirroring seqcheck's (see internal/seqcheck/macro.go for the
//     ordering and candidate machinery): the frontier is keyed by micro
//     depth, buckets sort by hop key in the order of the padded (thread,
//     successor-index) path, and mid-run failures defer as candidates
//     until every shallower stored state has been expanded.

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

func failEvent(f *sem.Failure) sem.Event {
	return sem.Event{
		Kind:     sem.EvStmt,
		ThreadID: f.ThreadID,
		Pos:      f.Pos,
		Text:     f.Msg,
	}
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
		fp := hasher.Hash(s)
		if bounded {
			fp = sem.Mix64(fp, uint64(lastTh+1))
			fp = sem.Mix64(fp, uint64(switches))
		}
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

	stack := []searchState{{st: init, nd: &node{}, lastTh: -1}}
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

			switches := cur.switches
			if cur.lastTh >= 0 && cur.lastTh != ti {
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
			mr := sem.MacroStepMemo(cur.st, ti, cMacroLimit(opts, cur.nd.depth, res.Steps), opts.Memo)
			res.Steps += mr.Stepped
			res.StatesStepped += len(mr.Prefix)
			if mr.Failure != nil {
				res.Verdict = Error
				res.Failure = mr.Failure
				res.Trace = append(append(cur.nd.trace(), mr.Prefix...), failEvent(mr.Failure))
				return res
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
						prefix:    mr.Prefix,
						prefixIdx: mr.PrefixIdx,
						event:     out.Event,
						idx:       mr.OutIdx[k],
						ti:        int32(ti),
						depth:     cur.nd.depth + len(mr.Prefix) + 1,
					},
					lastTh:   ti,
					switches: switches,
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
	depth  int
	key    []byte
	nd     *node
	prefix []sem.Event
	fail   *sem.Failure
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
	res.Verdict = Error
	res.Failure = cd.fail
	res.Trace = append(append(cFullTrace(c, cd.nd), cd.prefix...), failEvent(cd.fail))
	return res
}

// cmThread records the (possibly folded) expansion of one schedulable
// thread of a bucket item.
type cmThread struct {
	ti        int
	switches  int
	overBound bool
	blocked   bool
	fail      *sem.Failure
	prefix    []sem.Event
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

// checkMacroLevel is the micro-depth bucket BFS with macro-step
// compression, serving SearchWorkers >= 1.
//
// The bucket queue is a frontier.Queue in ordered mode (see
// internal/seqcheck/macro.go — the chunking and spilling machinery is
// shared): buckets stay in hop-key order resident or spilled, fully
// resident buckets stream back as one chunk, and the fold limit and the
// bucket's competing failure candidate are fixed before the first chunk.
func checkMacroLevel(c *sem.Compiled, opts Options) *Result {
	workers := opts.SearchWorkers
	res := &Result{}
	init := sem.NewState(c)
	bounded := opts.ContextBound >= 0

	vis := cNewVisited(opts)
	initFP := sem.NewFPHasher().Hash(init)
	if bounded {
		initFP = sem.Mix64(initFP, uint64(0)) // lastTh -1 encodes as 0
		initFP = sem.Mix64(initFP, uint64(0))
	}
	vis.Seen(initFP)
	res.States = 1
	res.StatesStepped = 1
	res.PeakFrontier = 1
	nworkers := workers
	if nworkers < 1 {
		nworkers = 1
	}
	perWorker := make([]int, nworkers)
	q := cNewQueue(c, opts, true)
	defer q.Close()
	defer func() {
		res.Visited = vis.Len()
		res.Parallel = &stats.Parallel{
			Workers:         workers,
			Shards:          vis.Shards(),
			PerWorkerStates: perWorker,
			ShardContention: vis.Contention(),
		}
		res.Memory = cMemoryRecord(opts, vis, q.Stats())
	}()

	hashers := make([]*sem.FPHasher, nworkers)
	for i := range hashers {
		hashers[i] = sem.NewFPHasher()
	}

	q.Push(0, searchState{st: init, nd: &node{}, lastTh: -1})
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
					switches := it.switches
					if it.lastTh >= 0 && it.lastTh != ti {
						switches++
						if bounded && switches > opts.ContextBound {
							ths = append(ths, cmThread{ti: ti, switches: switches, overBound: true})
							continue
						}
					}
					mr := sem.MacroStepMemo(it.st, ti, limit, opts.Memo)
					th := cmThread{
						ti: ti, switches: switches,
						fail:      mr.Failure,
						prefix:    mr.Prefix,
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
							fp := hashers[w].Hash(out.State)
							if bounded {
								fp = sem.Mix64(fp, uint64(ti+1))
								fp = sem.Mix64(fp, uint64(switches))
							}
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
					res.StatesStepped += len(th.prefix)
					if th.fail != nil {
						if len(th.prefix) == 0 {
							res.Verdict = Error
							res.Failure = th.fail
							res.Trace = append(cFullTrace(c, it.nd), failEvent(th.fail))
							return res
						}
						// keys[i] is reused by the next chunk; copy it.
						cands = append(cands, cMacroCand{
							depth:  depth + len(th.prefix),
							key:    cAppendPathEntry(bytes.Clone(keys[i]), pathEntry(int32(th.ti), th.prefixIdx[0])),
							nd:     it.nd,
							prefix: th.prefix,
							fail:   th.fail,
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
							prefix:    th.prefix,
							prefixIdx: th.prefixIdx,
							event:     ex.out.Event,
							idx:       ex.idx,
							ti:        int32(th.ti),
							depth:     depth + len(th.prefix) + 1,
						}
						q.Push(nd.depth, searchState{
							st:       ex.out.State,
							nd:       nd,
							lastTh:   th.ti,
							switches: th.switches,
						})
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
