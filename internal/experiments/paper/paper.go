// Package paper is the paper command: it parses one study's flags, looks the
// study up in experiments.Studies (or Ablations), runs it by
// experiments.Runner and prints the table. A flag the study does not read is
// refused, not ignored.
package paper

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/experiments/cliconfig"
)

// find returns the study of studies called name, nil if there is none, and
// every study's name in table order.
func find(studies []*experiments.Study, name string) (found *experiments.Study, names []string) {
	for _, st := range studies {
		if st.Name == name {
			found = st
		}
		names = append(names, st.Name)
	}
	return found, names
}

// Run runs the study args select and prints it to out. stop, polled before
// every measurement point, is SIGINT/SIGTERM or a test's counter.
func Run(args []string, out io.Writer, stop func() bool) error {
	_, figures := find(experiments.Studies, "")
	_, ablations := find(experiments.Ablations, "")
	choices := strings.Join(figures, ", ")
	var figure, ablation, json string
	s := new(experiments.Study).Setup() // the flags' defaults
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.StringVar(&figure, "figure", "", "study to regenerate: "+choices)
	fs.StringVar(&ablation, "ablation", "", "run a design ablation instead: "+strings.Join(ablations, ", ")+", all")
	requests := cliconfig.AddCount(fs, "requests", 0, "requests per point, case or model run; each study has its own default")
	memOps := cliconfig.AddCount(fs, "memops", 0, "memory operations per core, -figure 8 and 9; each has its own default")
	fs.StringVar(&json, "json", "", "write the result as JSON to this file (atomic temp+rename)")
	fs.Func("spec", "run the study on this device instead of its own: a preset name or a standard ("+
		strings.Join(dram.Standards(), ", ")+")", func(name string) error {
		sp, err := dram.ByName(name)
		s.Spec = &sp
		return err
	})
	channels := cliconfig.AddChannels(fs)
	fs.Float64Var(&s.Bin, "bin", s.Bin, "histogram bin width for display (ns)")
	fs.IntVar(&s.Cores, "cores", s.Cores, "number of cores, -figure 9")
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return err
	}

	studies, with := experiments.Ablations, "-ablation"
	if ablation == "" {
		if figure == "" {
			return fmt.Errorf("need -figure (%s) or -ablation NAME", choices)
		}
		st, _ := find(experiments.Studies, figure)
		if st == nil {
			return fmt.Errorf("unknown figure %q (want %s)", figure, choices)
		}
		studies, with = []*experiments.Study{st}, "-figure "+figure
	}
	var ignored error
	fs.Visit(func(f *flag.Flag) {
		if "-"+f.Name != strings.Fields(with)[0] && !slices.Contains(strings.Fields(studies[0].Flags), f.Name) {
			ignored = fmt.Errorf("-%s has no effect with %s", f.Name, with)
		}
	})
	if ignored != nil {
		return ignored
	}
	if ablation != "" && ablation != "all" {
		st, _ := find(experiments.Ablations, ablation)
		if st == nil {
			return fmt.Errorf("unknown ablation %q (have %v and all)", ablation, ablations)
		}
		studies = []*experiments.Study{st}
	}
	if s.Bin <= 0 {
		return fmt.Errorf("-bin must be a positive width in ns, got %g", s.Bin)
	}
	s.Channels = *channels

	runner := experiments.Runner{Stop: stop}
	var tables []*experiments.Table
	var err error
	for _, st := range studies {
		// The study reads one count; the other, set, was refused above.
		run := s
		if run.N, run.Seed = max(*requests, *memOps), st.Seed; run.N == 0 {
			run.N = st.Count
		}
		var t *experiments.Table
		// An ablation cut short is left out; a figure prints what finished.
		if t, err = runner.Study(st, run); err == nil || ablation == "" {
			tables = append(tables, t)
		}
		if err != nil {
			break
		}
	}
	progress := fmt.Sprintf("%d ablations", len(tables))
	if ablation == "" {
		progress = tables[0].Progress()
	}
	if !cliconfig.Partial(out, err, "%s", progress) {
		return err
	}
	if json != "" {
		if jerr := cliconfig.WriteResultJSON(out, json, tables[0]); jerr != nil {
			return jerr
		}
	}
	for _, t := range tables {
		t.Print(out)
	}
	return err
}
