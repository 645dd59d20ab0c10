// Command schedlint runs this repository's concurrency-invariant
// static analyzers (internal/lint) over a set of packages:
//
//	go run ./cmd/schedlint ./...
//
// Analyzers: atomicmix (no plain access to atomically-accessed words),
// cacheline (//sched:cacheline structs padded to 64-byte multiples),
// lockorder (no mutex acquisition-order cycles, every lock released on
// every return path), loopcapture (no plain writes to variables
// captured by parallel loop bodies), looperr (no ignored
// ForErr/ForEachErr/ForCtx/TryFor results), noalloc (//sched:noalloc
// functions contain no allocating construct), protocol
// (//sched:protocol atomic fields obey their declared state machines).
// Deliberate violations are annotated in the source with
// //lint:ignore <analyzer>[,<analyzer>...] <reason>; unknown analyzer
// names and stale suppressions are themselves findings.
//
// -json emits one JSON object per finding (file/line/col/analyzer/
// message) instead of the human-readable line format.
//
// -protodoc <file> regenerates the generated protocol-tables section of
// the given markdown document (DESIGN.md) in place from the
// //sched:protocol specs; "-" writes the section to stdout.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hybridloop/internal/lint"
)

// jsonDiagnostic is the machine-readable finding format emitted by
// -json, one object per line.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		tests    = flag.Bool("tests", false, "also analyze in-package _test.go files")
		list     = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut  = flag.Bool("json", false, "emit findings as JSON, one object per line")
		protodoc = flag.String("protodoc", "", "regenerate the protocol tables of the given markdown `file` in place (\"-\" for stdout) and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: schedlint [-tests] [-json] [-protodoc file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	ctx, err := lint.Load(".", patterns, *tests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}

	if *protodoc != "" {
		if err := writeProtodoc(ctx, *protodoc); err != nil {
			fmt.Fprintln(os.Stderr, "schedlint:", err)
			os.Exit(2)
		}
		return
	}

	diags := lint.Run(ctx, lint.Analyzers)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonOut {
			enc.Encode(jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "schedlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func writeProtodoc(ctx *lint.Context, target string) error {
	section := lint.ProtocolDoc(ctx)
	if target == "-" {
		fmt.Print(section)
		return nil
	}
	content, err := os.ReadFile(target)
	if err != nil {
		return err
	}
	spliced, err := lint.SpliceProtocolDoc(string(content), section)
	if err != nil {
		return fmt.Errorf("%s: %w", target, err)
	}
	if spliced == string(content) {
		return nil
	}
	return os.WriteFile(target, []byte(spliced), 0o644)
}
