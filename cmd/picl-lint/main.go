// picl-lint checks the PiCL-specific invariants the Go compiler and
// `go vet` cannot see: simulator determinism, 4-bit epoch-tag
// arithmetic, the mutex discipline of the module's lock owners, the
// durable store's write-ahead ordering contract, and the pairing of
// hot-path counters with trace events. It exits 1 when any
// unsuppressed diagnostic is found (this is what fails the `make ci`
// gate) and 2 on operational errors such as packages that do not
// type-check.
//
// Usage:
//
//	picl-lint [packages]       # defaults to ./...
//	picl-lint -rules           # list the rule set
//	picl-lint -sarif out.sarif # also write a SARIF 2.1.0 report
//	picl-lint -fix             # apply suggested fixes, then re-check
//
// Findings are suppressed with a justified comment on the offending
// line or the line directly above:
//
//	//lint:ignore <rule>[,<rule>] <reason>
//
// A directive that no longer suppresses any finding is itself a
// finding (rule "unused-ignore").
package main

import (
	"flag"
	"fmt"
	"os"

	"picl/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "print the rule set and exit")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 report to this `file`")
	fix := flag.Bool("fix", false, "apply suggested fixes in place, then re-check")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: picl-lint [-rules] [-sarif file] [-fix] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	diags := load(wd, patterns)

	if *fix {
		fixed, n, err := lint.ApplyFixes(diags)
		if err != nil {
			fatal(err)
		}
		for file, content := range fixed {
			if err := os.WriteFile(file, content, 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "picl-lint: applied %d fix(es) to %d file(s)\n", n, len(fixed))
		if n > 0 {
			// Re-check from the rewritten sources so remaining findings
			// carry accurate positions.
			diags = load(wd, patterns)
		}
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fatal(err)
		}
		if err := lint.WriteSARIF(f, wd, lint.All(), diags); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "picl-lint: %d unsuppressed diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

func load(wd string, patterns []string) []lint.Diagnostic {
	pkgs, err := lint.LoadModule(wd, patterns...)
	if err != nil {
		fatal(err)
	}
	return lint.Run(pkgs, lint.All())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "picl-lint:", err)
	os.Exit(2)
}
