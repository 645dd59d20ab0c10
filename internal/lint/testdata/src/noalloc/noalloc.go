// Package noalloc is the golden-file fixture for the noalloc analyzer:
// every allocating construct fires inside an annotated function, an
// identical unannotated function stays silent, the provably non-boxing
// interface conversions pass, and one cold-path allocation is
// suppressed.
package noalloc

import "sync/atomic"

type point struct{ x, y int }

func (p *point) sum() int { return p.x + p.y }

func scale(p *point, k int) { p.x, p.y = p.x*k, p.y*k }

func variadic(xs ...int) int { return len(xs) }

func sink(v any)

//sched:noalloc
func allocating(m map[int]int, s string, b []byte, n int) string {
	_ = make([]int, n)    // want: make
	_ = new(point)        // want: new
	b = append(b, 1)      // want: append
	m[1] = 2              // want: map write
	_ = []int{1, 2}       // want: slice literal
	_ = map[int]int{1: 2} // want: map literal
	p := &point{x: 1}     // want: address-taken composite literal
	_ = p
	t := s + string(b) // want: concatenation + string conversion
	_ = t
	_ = variadic(1, 2, n) // want: variadic argument slice
	sink(n)               // want: int boxed into any
	k := n
	f := func() int { return k } // want: closure captures k
	go f()                       // want: go statement
	for i := 0; i < n; i++ {
		defer f() // want: defer inside a loop
	}
	g := p.sum // want: bound method value
	_ = g
	var o point
	apply := func(q *point) { q.x = 1 }
	apply(&o) // want: address of a local passed through a function value
	return s
}

// identical constructs outside an annotation are not the analyzer's
// business.
func unannotated(n int) []int {
	return make([]int, n)
}

//sched:noalloc
func clean(w *atomic.Uint64, p *point, fn func(*point), n int) int {
	w.Store(uint64(n))
	_ = p.sum()       // a method called at once binds nothing
	h := (*point).sum // a method expression binds no receiver
	_ = h(p)
	var o point
	scale(&o, n) // a declared callee: escape analysis sees what it keeps
	fn(p)        // a pointer the caller already holds moves nothing
	sink(p)      // pointer-shaped: stored directly in the interface word
	sink(nil)    // nil never boxes
	sink("lit")  // constants are static data
	var a any = p
	sink(a)        // interface to interface
	defer w.Add(1) // open-coded defer outside any loop
	if p != nil {
		return p.x + n
	}
	return n
}

//sched:noalloc
func coldFallback(n int) []int {
	//lint:ignore noalloc cold path allocates by design in this fixture
	return make([]int, n)
}
