// Command genbase-bench regenerates the paper's evaluation and the
// repository's committed plan listing. Each job is one subcommand:
//
//	genbase-bench figures [flags] 1|2|3|4|5|table1|all ...
//	genbase-bench explain                 # compiled plans; the bytes of PLANS.txt
//	genbase-bench crash-drill [flags]     # WAL crash-recovery convergence drill
//
// figures prints every panel of Figures 1–5 and Table 1 as aligned text
// tables ("INF" marks runs that exceeded the cutoff or an engine's memory
// budget, the paper's horizontal lines; "-" marks queries a configuration
// cannot run). Timings of record come from `go run ./benchmark`, not from
// here.
//
// Exit status is 0 on success, 1 when a run fails, and 2 on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/genbase/genbase/internal/core"
	"github.com/genbase/genbase/internal/datagen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errUsage marks a bad command line; the usage text is already printed.
var errUsage = errors.New("usage")

// command is one subcommand: its name, a one-line summary for the top-level
// usage, and its body.
type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"figures", "regenerate Figures 1-5 and Table 1 of the paper", runFigures},
	{"explain", "print every configuration's compiled plan for every scenario (PLANS.txt)", runExplain},
	{"crash-drill", "crash a checkpointed WAL at every record boundary and check recovery converges", runCrashDrill},
}

// run executes one command line and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		switch err := c.run(args[1:], stdout, stderr); {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errUsage):
			return 2
		default:
			fmt.Fprintf(stderr, "genbase-bench %s: %v\n", c.name, err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "genbase-bench: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: genbase-bench <command> [flags] [args]")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Run 'genbase-bench <command> -h' for a command's flags.")
	fmt.Fprintln(w, "Timings of record come from 'go run ./benchmark'.")
}

// newFlagSet returns a flag set that reports errors instead of exiting, with
// a usage line naming the command and its positional arguments.
func newFlagSet(name, operands string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: genbase-bench %s [flags]%s\n", name, operands)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses the flags in args and returns the operands after them.
func parse(fs *flag.FlagSet, args []string) ([]string, error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errUsage // fs has printed the error and usage
	}
	return fs.Args(), nil
}

// badUsage prints the message and the command's usage, and returns errUsage.
func badUsage(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), "genbase-bench %s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	return errUsage
}

// noOperands parses a command that takes flags only.
func noOperands(fs *flag.FlagSet, args []string) error {
	operands, err := parse(fs, args)
	if err != nil {
		return err
	}
	if len(operands) > 0 {
		return badUsage(fs, "unexpected argument %q", operands[0])
	}
	return nil
}

// figureSelectors are the figures operands in the order they run.
var figureSelectors = []string{"1", "2", "3", "4", "5", "table1"}

// runFigures is the figures command: the core.Suite sweeps behind the
// selected panels, printed as text tables.
func runFigures(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("figures", " 1|2|3|4|5|table1|all ...", stderr)
	scale := fs.Float64("scale", 1.0, "dataset dimension multiplier")
	seed := fs.Uint64("seed", 1, "generator seed")
	timeout := fs.Duration("timeout", core.DefaultTimeout, "per-query cutoff (the paper's 2 hours, scaled)")
	sizes := fs.String("sizes", "small,medium,large", "comma-separated dataset presets for Figures 1, 2 and 5")
	reps := fs.Int("reps", 3, "repetitions per query (minimum kept)")
	quiet := fs.Bool("quiet", false, "suppress progress lines")
	operands, err := parse(fs, args)
	if err != nil {
		return err
	}
	if len(operands) == 0 {
		return badUsage(fs, "name a figure (1-5), table1 or all")
	}
	want := map[string]bool{}
	for _, op := range operands {
		switch {
		case op == "all":
			for _, s := range figureSelectors {
				want[s] = true
			}
		case slices.Contains(figureSelectors, op):
			want[op] = true
		default:
			return badUsage(fs, "unknown figure %q (want 1-5, table1 or all)", op)
		}
	}

	var sz []datagen.Size
	for _, s := range strings.Split(*sizes, ",") {
		sz = append(sz, datagen.Size(strings.TrimSpace(s)))
	}
	suite := &core.Suite{Sizes: sz, Scale: *scale, Seed: *seed, Timeout: *timeout, Repetitions: *reps}
	if !*quiet {
		suite.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, "  ▸ "+format+"\n", args...)
		}
	}
	ctx := context.Background()
	start := time.Now()
	printTables := func(tables []*core.Table) {
		for _, t := range tables {
			fmt.Fprintln(stdout, t.Render())
		}
	}

	var singleOuts []core.Outcome
	if want["1"] || want["2"] {
		fmt.Fprintln(stderr, "running single-node sweep (figures 1-2)...")
		if singleOuts, err = suite.RunSingleNode(ctx); err != nil {
			return err
		}
	}
	if want["1"] {
		tables, err := suite.Figure1(singleOuts)
		if err != nil {
			return err
		}
		printTables(tables)
	}
	if want["2"] {
		tables, err := suite.Figure2(singleOuts)
		if err != nil {
			return err
		}
		printTables(tables)
	}

	var multiOuts []core.Outcome
	if want["3"] || want["4"] {
		fmt.Fprintln(stderr, "running multi-node sweep (figures 3-4)...")
		if multiOuts, err = suite.RunMultiNode(ctx); err != nil {
			return err
		}
	}
	if want["3"] {
		printTables(suite.Figure3(multiOuts))
	}
	if want["4"] {
		printTables(suite.Figure4(multiOuts))
	}

	if want["5"] {
		fmt.Fprintln(stderr, "running coprocessor sweep (figure 5)...")
		outs, err := suite.RunPhi(ctx)
		if err != nil {
			return err
		}
		tables, err := suite.Figure5(outs)
		if err != nil {
			return err
		}
		printTables(tables)
	}
	if want["table1"] {
		fmt.Fprintln(stderr, "running multi-node coprocessor sweep (table 1)...")
		outs, err := suite.RunPhiMultiNode(ctx)
		if err != nil {
			return err
		}
		printTables([]*core.Table{suite.Table1(outs)})
	}
	fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Second))
	return nil
}
