// Command imaxbench runs the reproduction harness: every experiment in
// DESIGN.md §4 (one per claim of the paper — the paper has no numbered
// result tables, so the claims are the targets), printing the measured
// tables that EXPERIMENTS.md records. It measures no host or virtual
// performance; `go run ./benchmark` does that.
//
// Usage:
//
//	imaxbench          run everything
//	imaxbench -run E3  run one experiment
//	imaxbench -list    list experiment ids
//	imaxbench -md      emit Markdown (for EXPERIMENTS.md)
//
// Exits 1 if any experiment fails to reproduce, in both output modes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
)

func main() {
	runID := flag.String("run", "", "run a single experiment id (e.g. E3)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	md := flag.Bool("md", false, "emit Markdown instead of plain text")
	flag.Parse()

	ids := experiments.IDs()
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *runID != "" {
		ids = []string{*runID}
	}
	var results []*experiments.Result
	for _, id := range ids {
		res, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imaxbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	os.Exit(report(os.Stdout, results, *md))
}

// report prints every result and returns the exit code: 1 if any
// experiment failed, whichever format was asked for — a regenerated
// EXPERIMENTS.md with a ❌ row in it must not exit 0.
func report(w io.Writer, results []*experiments.Result, md bool) int {
	failed := 0
	for _, r := range results {
		if md {
			printMarkdown(w, r)
		} else {
			printPlain(w, r)
		}
		if !r.Pass {
			failed++
		}
	}
	if !md {
		fmt.Fprintf(w, "\n%d experiments, %d reproduced the paper's shape, %d did not\n",
			len(results), len(results)-failed, failed)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func printPlain(w io.Writer, r *experiments.Result) {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "\n=== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(w, "claim   : %s\n", r.Claim)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  "+strings.Join(r.Header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, "  "+strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintf(w, "verdict : %s\n", r.Verdict)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note    : %s\n", n)
	}
}

func printMarkdown(w io.Writer, r *experiments.Result) {
	status := "✅"
	if !r.Pass {
		status = "❌"
	}
	fmt.Fprintf(w, "\n### %s — %s %s\n\n", r.ID, r.Title, status)
	fmt.Fprintf(w, "**Claim.** %s\n\n", r.Claim)
	fmt.Fprintln(w, "| "+strings.Join(r.Header, " | ")+" |")
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintln(w, "| "+strings.Join(sep, " | ")+" |")
	for _, row := range r.Rows {
		fmt.Fprintln(w, "| "+strings.Join(row, " | ")+" |")
	}
	fmt.Fprintf(w, "\n**Measured.** %s\n", r.Verdict)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
}
