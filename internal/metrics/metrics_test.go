package metrics

import (
	"strings"
	"testing"
)

// TestNilRegistryIsOff pins the package's rule 1: a nil registry and the
// nil instruments it hands out are complete no-ops, so producers can be
// wired unconditionally.
func TestNilRegistryIsOff(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "", nil)
	g := r.Gauge("x", "", nil)
	h := r.Histogram("x_seconds", "", nil, nil)
	w := r.Windowed("x_win_seconds", "", nil, nil, 4)
	if c != nil || g != nil || h != nil || w != nil {
		t.Fatalf("nil registry must return nil instruments, got %v %v %v %v", c, g, h, w)
	}
	c.Inc()
	c.Add(3)
	g.Set(7)
	g.Add(-1)
	h.Observe(1.5)
	w.Observe(2.5)
	w.Rotate()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || w.Rotations() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	r.OnCollect("y", "", KindGauge, func(emit func(Labels, float64)) { t.Fatal("collector on nil registry") })
	r.Rotate()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v out=%q", err, sb.String())
	}
}

func TestCounterGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("tasks_total", "help", L("worker", "0"))
	b := r.Counter("tasks_total", "help", L("worker", "0"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("tasks_total", "help", L("worker", "1"))
	if a == other {
		t.Fatal("different labels must return distinct series")
	}
	a.Inc()
	a.Add(2)
	if a.Value() != 3 || other.Value() != 0 {
		t.Fatalf("counter values: %d, %d", a.Value(), other.Value())
	}
	g := r.Gauge("level", "", nil)
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge value: %d", g.Value())
	}
}

func TestLBuilder(t *testing.T) {
	ls := L("a", "1", "b", "2")
	if len(ls) != 2 || ls[0] != (Label{"a", "1"}) || ls[1] != (Label{"b", "2"}) {
		t.Fatalf("L built %v", ls)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd pair count must panic")
		}
	}()
	L("a")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a family under a new kind must panic")
		}
	}()
	r.Gauge("x", "", nil)
}

func TestLabelKeyEscaping(t *testing.T) {
	ls := L("path", `a\b"c`+"\n")
	got := ls.key()
	want := `path="a\\b\"c\n"`
	if got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
}

func TestOnCollect(t *testing.T) {
	r := NewRegistry()
	r.OnCollect("collected", "const samples", KindCounter, func(emit func(Labels, float64)) {
		emit(L("k", "b"), 2)
		emit(L("k", "a"), 1)
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`collected{k="a"} 1`,
		`collected{k="b"} 2`,
		"# TYPE collected counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: collector samples sorted by label key.
	if strings.Index(out, `k="a"`) > strings.Index(out, `k="b"`) {
		t.Fatalf("collector samples not sorted:\n%s", out)
	}
}

func TestRegistryRotateReachesAllWindowed(t *testing.T) {
	r := NewRegistry()
	w1 := r.Windowed("a_seconds", "", L("s", "1"), nil, 2)
	w2 := r.Windowed("a_seconds", "", L("s", "2"), nil, 2)
	r.Rotate()
	r.Rotate()
	if w1.Rotations() != 2 || w2.Rotations() != 2 {
		t.Fatalf("rotations: %d, %d", w1.Rotations(), w2.Rotations())
	}
	// Same labels → same windowed handle, not re-registered for rotation.
	w1b := r.Windowed("a_seconds", "", L("s", "1"), nil, 2)
	if w1b != w1 {
		t.Fatal("same name+labels must return the same windowed histogram")
	}
	r.mu.RLock()
	n := len(r.windowed)
	r.mu.RUnlock()
	if n != 2 {
		t.Fatalf("windowed registered %d times, want 2", n)
	}
}
