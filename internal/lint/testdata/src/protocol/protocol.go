// Package protocol is the golden-file fixture for the protocol
// analyzer: declared transitions and folded constants pass, undeclared
// transitions, off-spec stores, arithmetic ops, and plain writes are
// reported, and one deliberate violation is suppressed.
package protocol

import "sync/atomic"

const (
	gIdle    = 0
	gRunning = 1
	gDone    = 2
)

func external() uint32

// gate is a fully constant protocol word.
type gate struct {
	//sched:protocol gate
	//sched:state idle = gIdle
	//sched:state running = gRunning
	//sched:state done = gDone
	//sched:trans idle -> running
	//sched:trans running -> done
	//sched:trans any -> idle
	word atomic.Uint32
}

func declared(g *gate) {
	g.word.CompareAndSwap(gIdle, gRunning) // declared transition
	g.word.CompareAndSwap(gRunning, gDone) // declared transition
	g.word.Store(gIdle)                    // any -> idle is declared
	_ = g.word.Load()                      // loads are always legal
}

// folded proves constants reach the checker through single-assignment
// locals, not only literal arguments.
func folded(g *gate) {
	next := uint32(gDone)
	g.word.CompareAndSwap(gRunning, next) // folds to running -> done
}

func violations(g *gate) {
	g.word.CompareAndSwap(gDone, gRunning) // want: undeclared transition done -> running
	g.word.Store(gRunning)                 // want: no any -> running transition
	g.word.Store(7)                        // want: 7 matches no declared state
	g.word.Add(1)                          // want: arithmetic on a protocol word
	v := external()
	g.word.Store(v) // want: non-constant store, no dyn state declared
}

func plainWrite(g *gate) {
	g.word = atomic.Uint32{} // want: plain write bypasses the state machine
}

func suppressed(g *gate) {
	//lint:ignore protocol deliberate off-spec probe for the fixture
	g.word.Store(gRunning)
}

// slot has a dyn state: any non-constant value is "full".
type slot struct {
	//sched:protocol slot
	//sched:state empty = 0
	//sched:state full = dyn
	//sched:trans empty -> full
	//sched:trans any -> empty
	v atomic.Uint64
}

func publish(s *slot, w uint64) {
	s.v.CompareAndSwap(0, w) // empty -> full: w is the dyn state
	s.v.Store(0)             // any -> empty is declared
}

// hazard has a nil state: the literal nil is "clear", any pointer "held".
type hazard struct {
	//sched:protocol hazard
	//sched:state clear = nil
	//sched:state held = dyn
	//sched:trans any -> held
	//sched:trans clear -> held
	h atomic.Pointer[slot]
}

func hold(h *hazard, s *slot) {
	h.h.Store(s)               // any -> held
	h.h.CompareAndSwap(nil, s) // clear -> held
	h.h.CompareAndSwap(s, nil) // want: undeclared transition held -> clear
	h.h.Store(nil)             // want: no any -> clear transition
}

// badspec exercises the spec parser's own diagnostics.
type badspec struct {
	//sched:protocol badspec
	//sched:state any = 1
	//sched:state a = 0
	//sched:state a = 2
	//sched:state b = nosuchconst
	//sched:trans a -> missing
	w atomic.Uint32
}
