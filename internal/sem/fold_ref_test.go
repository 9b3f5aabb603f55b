package sem

// The clone-per-step folds as they stood before folds stepped their own
// intermediate states in place (step with owned set) and pruned nondeterministic
// jumps before cloning (stepNondetPruned): every micro step goes through
// Step, which clones, and pruneInfeasible filters the cloned branches.
// Kept verbatim, under ref* names, as the reference that
// TestFoldOwnedMatchesReference holds the production folds to.

func refMacroStepMemo(s *State, ti, limit int, memo *FoldMemo) MacroResult {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	if memo == nil || !othersDone(s, ti) {
		// Memo entries are recorded and replayed only at states where every
		// other thread is done (sole-live folding), so the fold-stop
		// condition is invariant across base and replay states.
		return refMacroRun(s, ti, limit)
	}
	e, warm := memo.lookup(s, ti, limit)
	if e != nil {
		return memo.replay(s, ti, limit, e)
	}
	memo.misses.Add(1)
	if !warm {
		return refMacroRun(s, ti, limit)
	}
	rec := recorderPool.Get().(*foldRecorder)
	rec.reset(s)
	rec.foldActive = true
	s.rec = rec
	mr := refMacroRun(s, ti, limit)
	// Clear the recorder from every state that escapes to the search.
	s.rec = nil
	for i := range mr.Outcomes {
		mr.Outcomes[i].State.rec = nil
	}
	if !rec.aborted && mr.Stepped >= memoMinStepped {
		memo.store(s, ti, rec, &mr)
	}
	recorderPool.Put(rec)
	return mr
}

func refMacroStepMemoSum(s *State, ti, limit int, memo *FoldMemo, sum *SummaryTable) MacroResult {
	if limit <= 0 || limit > MaxMacroRun {
		limit = MaxMacroRun
	}
	soleHere := othersDone(s, ti)
	if memo != nil && soleHere {
		e, warm := memo.lookup(s, ti, limit)
		if e != nil {
			return memo.replay(s, ti, limit, e)
		}
		memo.misses.Add(1)
		if warm {
			return refMacroRunSum(s, ti, limit, memo, sum, true)
		}
	}
	if sum != nil && soleHere {
		// No fold recording (memo off, cold, or multi-live base is ruled
		// out above), but summaries still replay and record call layers.
		return refMacroRunSum(s, ti, limit, nil, sum, false)
	}
	return refMacroRun(s, ti, limit)
}

func refMacroRunSum(s *State, ti, limit int, memo *FoldMemo, sum *SummaryTable, recordFold bool) MacroResult {
	var mr MacroResult
	rec := recorderPool.Get().(*foldRecorder)
	rec.reset(s)
	rec.foldActive = recordFold
	// A bare fold (summaries only) runs hook-free until a layer opens:
	// states carry no recorder, so the 0-layer common case pays nothing
	// per read/write. Fold recording needs the footprint from step one.
	if recordFold {
		s.rec = rec
	}
	ps := prefixPool.Get().(*prefixScratch)
	evs, pidx := ps.ev[:0], ps.idx[:0]
	cur := s
	for {
		// Summary fast path: the next instruction is a call. (Sole-
		// liveness holds inductively: the base is sole-live and the loop
		// below only continues through sole-live successors.)
		if sum != nil {
			if fr := cur.Threads[ti].Top(); fr != nil && fr.PC < len(fr.CF.Code) && fr.CF.Code[fr.PC].Op == OpCall {
				if e, warm := sum.lookup(cur, ti, fr); e != nil && mr.Stepped+e.stepped <= limit {
					if ns, ok := sum.replay(cur, ti, rec, e); ok {
						mr.Stepped += e.stepped
						n := len(e.events)
						if mr.Stepped >= limit {
							// The segment's final return becomes the fold's
							// endpoint, exactly as if the limit had cut the
							// run there: post-return the caller is live and
							// every other thread done, so Limited holds.
							evs = append(evs, e.events[:n-1]...)
							pidx = append(pidx, e.idx[:n-1]...)
							mr.Outcomes = []Outcome{{State: ns, Event: e.events[n-1]}}
							mr.OutIdx = []int32{e.idx[n-1]}
							mr.Limited = true
							break
						}
						evs = append(evs, e.events...)
						pidx = append(pidx, e.idx...)
						cur = ns
						continue
					}
				} else if e == nil && warm && len(rec.layers) < maxOpenLayers {
					l := layerPool.Get().(*sumLayer)
					l.reset(cur, ti, fr, len(evs), mr.Stepped)
					rec.layers = append(rec.layers, l)
					if d := int64(len(rec.layers)); d > sum.maxDepth.Load() {
						sum.maxDepth.Store(d)
					}
					if cur.rec == nil {
						cur.rec = rec // lazy attach: first layer of a bare fold
					}
				}
			}
		}
		sr := Step(cur, ti)
		mr.Stepped++
		if sr.Failure != nil || sr.Blocked {
			mr.StepResult = sr
			break
		}
		outs := sr.Outcomes
		var idxs []int32
		if len(outs) > 1 {
			outs, idxs = pruneInfeasible(sr.Outcomes, ti)
		}
		if len(outs) != 1 || !soleLive(outs[0].State, ti) || mr.Stepped >= limit {
			if idxs == nil {
				idxs = identityIdx(len(outs))
			}
			mr.StepResult = sr
			mr.Outcomes = outs
			mr.OutIdx = idxs
			mr.Limited = len(outs) == 1 && soleLive(outs[0].State, ti)
			break
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		// A return to a layer's base depth closes that layer: the step we
		// just folded was its segment's matching return.
		for len(rec.layers) > 0 {
			top := rec.layers[len(rec.layers)-1]
			if len(outs[0].State.Threads[ti].Frames) != top.d0 {
				break
			}
			rec.layers = rec.layers[:len(rec.layers)-1]
			if !top.aborted {
				stepped := mr.Stepped - top.startStepped
				segEvents := make([]Event, 0, len(evs)-top.startEv+1)
				segEvents = append(segEvents, evs[top.startEv:]...)
				segEvents = append(segEvents, outs[0].Event)
				segIdx := make([]int32, 0, len(pidx)-top.startEv+1)
				segIdx = append(segIdx, pidx[top.startEv:]...)
				segIdx = append(segIdx, idx0)
				sum.store(top, outs[0].State, ti, segEvents, segIdx, stepped)
			}
			top.base = nil
			layerPool.Put(top)
		}
		if len(rec.layers) == 0 && !recordFold {
			outs[0].State.rec = nil // last layer closed: back to hook-free
		}
		evs = append(evs, outs[0].Event)
		pidx = append(pidx, idx0)
		cur = outs[0].State
	}
	// Clear the recorder from every state that escapes to the search and
	// discard layers left open by the fold's end.
	s.rec = nil
	for i := range mr.Outcomes {
		mr.Outcomes[i].State.rec = nil
	}
	for _, l := range rec.layers {
		l.base = nil
		layerPool.Put(l)
	}
	rec.layers = rec.layers[:0]
	if len(evs) > 0 {
		mr.Prefix = make([]Event, len(evs))
		copy(mr.Prefix, evs)
		mr.PrefixIdx = make([]int32, len(pidx))
		copy(mr.PrefixIdx, pidx)
	}
	// The fold is stored only after Prefix is materialized: memo entries
	// keep a reference to the exact-size copy, not the pooled scratch.
	if recordFold && !rec.aborted && mr.Stepped >= memoMinStepped {
		memo.store(s, ti, rec, &mr)
	}
	recorderPool.Put(rec)
	clear(evs)
	ps.ev, ps.idx = evs, pidx
	prefixPool.Put(ps)
	return mr
}

func refMacroRun(s *State, ti, limit int) MacroResult {
	var mr MacroResult
	ps := prefixPool.Get().(*prefixScratch)
	evs, pidx := ps.ev[:0], ps.idx[:0]
	cur := s
	for {
		sr := Step(cur, ti)
		mr.Stepped++
		if sr.Failure != nil || sr.Blocked {
			mr.StepResult = sr
			break
		}
		outs := sr.Outcomes
		var idxs []int32
		if len(outs) > 1 {
			// Only choice branches are pruned: a deterministic continuation
			// into a dead assume instead folds to its blocked endpoint, so
			// the block (and concheck's deadlock accounting) surfaces
			// exactly as in the per-statement search.
			outs, idxs = pruneInfeasible(sr.Outcomes, ti)
		}
		if len(outs) != 1 || !soleLive(outs[0].State, ti) || mr.Stepped >= limit {
			if idxs == nil {
				idxs = identityIdx(len(outs))
			}
			mr.StepResult = sr
			mr.Outcomes = outs
			mr.OutIdx = idxs
			// Limited only when the limit alone stopped the run: with one
			// live sole-live successor it would have kept folding.
			mr.Limited = len(outs) == 1 && soleLive(outs[0].State, ti)
			break
		}
		idx0 := int32(0)
		if idxs != nil {
			idx0 = idxs[0]
		}
		evs = append(evs, outs[0].Event)
		pidx = append(pidx, idx0)
		cur = outs[0].State
	}
	if len(evs) > 0 {
		mr.Prefix = make([]Event, len(evs))
		copy(mr.Prefix, evs)
		mr.PrefixIdx = make([]int32, len(pidx))
		copy(mr.PrefixIdx, pidx)
	}
	clear(evs) // drop Event string/state references held by the pooled buffer
	ps.ev, ps.idx = evs, pidx
	prefixPool.Put(ps)
	return mr
}
