package main

import (
	"strings"
	"testing"
)

func TestParseScenario(t *testing.T) {
	got, err := parseScenario("2:3,0:0,1:1", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []arrival{{0, 0}, {1, 1}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseScenarioRejects(t *testing.T) {
	for _, c := range []struct{ name, in, msg string }{
		{"malformed pair", "0:0,1", `bad pair "1"`},
		{"not a number", "0:x", `bad pair "0:x"`},
		{"negative step", "0:-1", `bad pair "0:-1"`},
		{"out-of-range worker", "0:0,4:1", `bad pair "4:1"`},
		{"negative worker", "-1:0", `bad pair "-1:0"`},
		{"repeated worker", "0:0,0:1", "worker 0 enters twice"},
	} {
		_, err := parseScenario(c.in, 4)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: parseScenario(%q) = %v, want an error containing %q", c.name, c.in, err, c.msg)
		}
	}
}
