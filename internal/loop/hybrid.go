package loop

import (
	"hybridloop/internal/core"
	"hybridloop/internal/sched"
	"hybridloop/internal/trace"
)

// hybridLoop is one dynamic execution of a registry-probed parallel loop:
// the partition structure A shared by all participating workers plus the
// bookkeeping to join the loop. It implements sched.HybridLoop so idle
// workers enter via the DoHybridLoop steal protocol. A DynamicStealing
// loop is the same descriptor with no partition set (ps == nil): its
// thieves only steal halves of published ranges.
//
// The body, options and chunk live in rs alone; h.rs.opts is the loop's
// options. The descriptor lives in the loop's recycled frame and serves
// one loop after another (see frame).
type hybridLoop struct {
	sched.LoopEntry // the registry's record of this loop
	ps              *core.PartitionSet
	g               sched.Group // partition completions + outstanding lazy ranges
	rs              rangeSet    // per-worker steal-half descriptors (doWork state)
	// held records that UnregisterLoop found an idle probe still holding
	// the descriptor, which must not be reused until LoopHeld denies it.
	held bool
}

// register wires h for a loop over ps (nil for DynamicStealing) and
// enrolls it in the pool's registry.
//
//sched:noalloc
func (h *hybridLoop) register(w *sched.Worker, ps *core.PartitionSet, body BodyW, opts *Options, chunk int) {
	pool := w.Pool()
	h.ps = ps
	h.g.BindCancel(opts.Cancel)
	h.rs.init(pool.P(), &h.g, body, opts, chunk)
	if ps != nil {
		// Every partition must be executed before the loop completes; the
		// group counts partition completions (Theorem 3: exactly R of
		// them) plus, transiently, the published ranges and stolen halves
		// of the lazy doWork inside each partition.
		h.g.Add(ps.R())
	}
	pool.RegisterLoopWeighted(h, opts.Priority)
}

// unregister removes h from the registry, recording whether a probe may
// still hold it. Deferred by the loop's owner, so a body panic re-raised
// by Wait still removes the loop.
//
//sched:noalloc
func (h *hybridLoop) unregister(pool *sched.Pool) { h.held = pool.UnregisterLoop(h) }

// hybridFor is InitHybridLoop (Algorithm 1): build the partition structure,
// register the loop for the steal protocol, run DoHybridLoop with the
// initiating worker's ID, and sync.
//
//sched:noalloc
func hybridFor(w *sched.Worker, begin, end int, body BodyW, opts *Options) {
	p := w.Pool().P()
	h := &opts.frame.h
	h.register(w, opts.frame.partitions(begin, end, p), body, opts, opts.chunk(end-begin, p))
	defer h.unregister(w.Pool())
	h.doHybridLoop(w, false)
	w.Wait(&h.g)
}

// Live reports whether the loop can still feed a thief: unclaimed
// partitions remain, or some claimed partition's published range still
// has stealable iterations. Dead loops are skipped by the steal protocol
// without touching the flags.
func (h *hybridLoop) Live() bool {
	return (h.ps != nil && h.ps.Unclaimed() > 0) || h.rs.active.Load() > 0
}

// TrySteal implements the steal protocol of Section III, extended with
// steal-half range stealing: a thief w first checks whether its
// designated partition r = w XOR 0 has been claimed; if not it enters
// DoHybridLoop with its own worker ID. With no claimable partition left
// it tries to CAS the upper half off another worker's published
// in-partition range before reverting to ordinary randomized work
// stealing. The entry is recorded — the trace.StealEntry event and
// Worker.NoteLoopEntry, which feeds Stats.LoopEntries — only once a
// partition is actually claimed or a half actually stolen, and before the
// thief runs it: a thief that loses every race records nothing, and the
// two views agree as soon as the loop's join returns.
func (h *hybridLoop) TrySteal(w *sched.Worker) bool {
	if h.rs.opts.Cancel.Cancelled() {
		// A cancelled loop is drained, not entered: claim whatever is
		// left so the join's partition holds are released, execute
		// nothing. Returns false — the worker did no loop work.
		h.drain(w)
		return false
	}
	if h.ps != nil && !h.ps.PeekClaimed(w.ID()) && h.doHybridLoop(w, true) {
		return true
	}
	return h.rs.trySteal(w)
}

// drain claims every remaining partition without executing its body and
// releases the corresponding group holds, so the initiating Wait of a
// cancelled loop completes instead of blocking on partitions no worker
// will ever claim. Any worker may drain; the claim flags make each
// partition's release happen exactly once. A loop without partitions has
// nothing to drain: its owners abandon their published ranges.
func (h *hybridLoop) drain(w *sched.Worker) {
	if h.ps == nil {
		return
	}
	for r := 0; r < h.ps.R(); r++ {
		if h.ps.Claimed(r) || !h.ps.ClaimPartition(r) {
			continue
		}
		if h.rs.opts.Trace != nil {
			part := h.ps.Partition(r)
			h.rs.opts.Trace.Add(w.ID(), trace.Cancel, int64(part.Begin), int64(part.End))
		}
		h.g.Done()
	}
}

// doHybridLoop is Algorithm 3 for worker w: walk the claim sequence,
// executing each successfully claimed partition. The paper's work-first
// Cilk executes doWork immediately after a claim while the rest of the
// claim loop sits in the deque as a stealable continuation; here the
// continuation is reachable through the loop registry instead, with
// identical effect — other workers enter concurrently with their own IDs.
// viaSteal marks an entry through the steal protocol (for tracing).
// Returns whether any partition was claimed.
func (h *hybridLoop) doHybridLoop(w *sched.Worker, viaSteal bool) bool {
	c := core.NewClaimer(h.ps, w.ID())
	cc := h.rs.opts.Cancel
	any := false
	failedBefore := 0
	for {
		if cc.Cancelled() {
			// The loop died mid-claim-sequence (a body error, panic, or
			// context cancellation): stop executing and drain whatever
			// the claim phase has not handed out yet.
			h.drain(w)
			return any
		}
		r, ok := c.Next()
		if ok && !any {
			// First successful claim: this worker has definitely entered
			// the loop. Record the steal entry now (not before the walk,
			// where a thief losing every race would log a phantom entry,
			// nor after it, when its Done may have released the join),
			// and chain the wakeup — partitions left unclaimed are surplus
			// another parked worker could be claiming concurrently.
			if viaSteal {
				w.NoteLoopEntry()
				if h.rs.opts.Trace != nil {
					h.rs.opts.Trace.Add(w.ID(), trace.StealEntry, int64(w.ID()), 0)
				}
			}
			if h.ps.Unclaimed() > 0 {
				w.Pool().Notify()
			}
		}
		if h.rs.opts.Trace != nil {
			for f := failedBefore; f < c.Failed(); f++ {
				// The failed partition indexes are internal to the claim
				// sequence; only the count is reported.
				h.rs.opts.Trace.Add(w.ID(), trace.ClaimFail, -1, 0)
			}
			failedBefore = c.Failed()
			if ok {
				h.rs.opts.Trace.Add(w.ID(), trace.ClaimOK, int64(r), 0)
			}
		}
		if !ok {
			return any
		}
		any = true
		// Protect: a panicking body must surface at the loop's initiating
		// Wait, not kill the worker that entered via the steal protocol.
		h.g.Protect(func() { h.runPartition(w, r) })
		h.g.Done()
	}
}

// runPartition executes one claimed partition via the lazy doWork: the
// claiming worker publishes the partition's range in its steal-half
// descriptor and consumes it chunk by chunk, so an unbalanced partition
// can still be load balanced — but a partition nobody contends for runs
// with zero deque traffic instead of the former lg(n/chunk) eager
// splits. The worker does not wait here: outstanding stolen halves are
// enrolled in the loop group, so the claimer moves straight on to its
// next claim (work-conserving) and the initiating Wait joins everything.
func (h *hybridLoop) runPartition(w *sched.Worker, r int) {
	part := h.ps.Partition(r)
	if part.Empty() {
		return
	}
	h.rs.runOwned(w, part.Begin, part.End)
}
