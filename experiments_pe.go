package quicbench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stacks"
)

// simDur converts a wall-clock duration to simulator time.
func simDur(d time.Duration) sim.Time { return sim.Duration(d) }

// runTab1 prints the stack inventory (Table 1) with the modelled
// deviations.
func runTab1(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	tbl := &report.Table{Header: []string{"Organization", "Stack", "CUBIC", "BBR", "Reno", "Modelled deviations"}}
	mark := func(s *stacks.Stack, cca stacks.CCA) string {
		if s.Has(cca) {
			return "yes"
		}
		return "-"
	}
	for _, s := range stacks.All() {
		notes := ""
		for _, cca := range stacks.AllCCAs {
			if n := s.Notes[cca]; n != "" && s.Name != "kernel" {
				if notes != "" {
					notes += "; "
				}
				notes += string(cca) + ": " + n
			}
		}
		tbl.AddRow(s.Organization, s.Name, mark(s, stacks.CUBIC), mark(s, stacks.BBR), mark(s, stacks.Reno), notes)
	}
	return tbl.Render(cfg.Out)
}

// runFig1 contrasts the old single-hull PE with the clustered PE for
// quiche CUBIC, the paper's motivating example.
func runFig1(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	fmt.Fprintf(cfg.Out, "quiche CUBIC vs kernel CUBIC (%s)\n", n)
	testTrials, refTrials, err := refCache{}.trials(core.Spec("quiche", stacks.CUBIC), kernelFlow(stacks.CUBIC), n)
	if err != nil {
		return printNA(cfg, "  ", err)
	}
	oldTest := pe.BuildOld(testTrials)
	oldRef := pe.BuildOld(refTrials)
	confOld := pe.Conformance(oldTest, oldRef)
	fmt.Fprintf(cfg.Out, "  (a) single-hull definition:  Conformance = %.2f (1 hull each)\n", confOld)

	newTest, newRef, err := envelopePair(testTrials, refTrials, n.Seed)
	confNew := pe.Conformance(newTest, newRef)
	fmt.Fprintln(cfg.Out, "  (b) clustering-based:        "+orNA(err,
		"Conformance = %.2f (test k=%d, ref k=%d)", confNew, newTest.K, newRef.K))
	if err == nil && confNew > confOld+0.05 {
		fmt.Fprintln(cfg.Out, "  note: clustered conformance came out higher in this run; the paper's")
		fmt.Fprintln(cfg.Out, "  point is that the single hull OVERESTIMATES overlap when clouds are split")
	}

	plotA := &report.SVGPlot{Title: "Fig 1a: single-hull PE (quiche CUBIC)"}
	peSeries(plotA, "reference", oldRef)
	peSeries(plotA, "quiche", oldTest)
	if err := savePlot(cfg, "fig1a_single_hull.svg", plotA); err != nil {
		return err
	}
	plotB := &report.SVGPlot{Title: "Fig 1b: clustered PE (quiche CUBIC)"}
	peSeries(plotB, "reference", newRef)
	peSeries(plotB, "quiche", newTest)
	return savePlot(cfg, "fig1b_clustered.svg", plotB)
}

// runFig2 shows BBR's two natural clusters (ProbeBW vs ProbeRTT).
func runFig2(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	// ProbeRTT occurs every 10 s; the run must cover several cycles even
	// at Quick scale.
	if cfg.Scale.Duration < 60*time.Second {
		cfg.Scale.Duration = 60 * time.Second
	}
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	fmt.Fprintf(cfg.Out, "kernel BBR self-competition (%s), forced k=2:\n", n)
	refTrials, err := core.ReferenceTrials(kernelFlow(stacks.BBR), n)
	var env *pe.Envelope
	if err == nil {
		env, err = pe.BuildE(refTrials, pe.Options{Seed: n.Seed, ForceK: 2})
	}
	if err != nil {
		return printNA(cfg, "  ", err)
	}

	pts := env.AllPoints()
	// Split points by nearest hull and report cluster centroids.
	for i, h := range env.Hulls {
		var cx, cy float64
		var count int
		for _, p := range pts {
			if h.Contains(p) {
				cx += p.X
				cy += p.Y
				count++
			}
		}
		if count > 0 {
			fmt.Fprintf(cfg.Out, "  cluster %d: %4d samples, centroid (%.1f ms, %.1f Mbps)\n",
				i+1, count, cx/float64(count), cy/float64(count))
		}
	}
	natural, err := pe.BuildE(refTrials, pe.Options{Seed: n.Seed})
	fmt.Fprintln(cfg.Out, "  natural k chosen by the retention rule: "+orNA(err, "%d", natural.K))

	plot := &report.SVGPlot{Title: "Fig 2: TCP BBR ProbeBW / ProbeRTT clusters"}
	peSeries(plot, "kernel BBR", env)
	return savePlot(cfg, "fig2_bbr_clusters.svg", plot)
}

// runFig3 shows the cluster structure of CUBIC and Reno reference PEs.
func runFig3(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	for _, cca := range []stacks.CCA{stacks.CUBIC, stacks.Reno} {
		prefix := fmt.Sprintf("kernel %s self-competition: ", cca)
		trials, err := core.ReferenceTrials(kernelFlow(cca), n)
		var env *pe.Envelope
		if err == nil {
			env, err = pe.BuildE(trials, pe.Options{Seed: n.Seed})
		}
		if err != nil {
			fmt.Fprintln(cfg.Out, prefix+report.NA(err))
			continue
		}
		fmt.Fprintf(cfg.Out, "%snatural k = %d, %d hulls, R(k) = %v\n",
			prefix, env.K, len(env.Hulls), fmtCurve(env.Retention))
		plot := &report.SVGPlot{Title: fmt.Sprintf("Fig 3: kernel %s clusters", cca)}
		peSeries(plot, "kernel "+string(cca), env)
		if err := savePlot(cfg, fmt.Sprintf("fig3_%s_clusters.svg", cca), plot); err != nil {
			return err
		}
	}
	return nil
}

// runFig4 prints the retention curve R(k) and the chosen k for a CUBIC
// measurement, illustrating §3.2's k-selection rule.
func runFig4(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	trials, err := core.TestTrials(core.Spec("quiche", stacks.CUBIC), kernelFlow(stacks.CUBIC), n)
	var env *pe.Envelope
	if err == nil {
		env, err = pe.BuildE(trials, pe.Options{Seed: n.Seed})
	}
	if err != nil {
		return printNA(cfg, "quiche CUBIC retention curve: ", err)
	}

	tbl := &report.Table{Header: []string{"k", "IOU R(k)", "drop to R(k+1)"}}
	for k := 1; k <= len(env.Retention); k++ {
		drop := "-"
		if k < len(env.Retention) {
			drop = fmt.Sprintf("%.3f", env.Retention[k-1]-env.Retention[k])
		}
		tbl.AddRow(k, env.Retention[k-1], drop)
	}
	if err := tbl.Render(cfg.Out); err != nil {
		return err
	}
	_, err = fmt.Fprintf(cfg.Out, "chosen k (before the steepest qualifying drop): %d\n", env.K)
	return err
}

func fmtCurve(rs []float64) string {
	s := "["
	for i, r := range rs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", r)
	}
	return s + "]"
}

// lowConfPE renders one implementation's PE against the reference and
// prints its metric line; shared by Figs. 7-10. An undefined cell prints
// n/a and has no plot.
func lowConfPE(cfg ExpConfig, rc refCache, stackName string, cca stacks.CCA, n core.Network, fileTag string) error {
	testTrials, refTrials, err := rc.trials(core.Spec(stackName, cca), kernelFlow(cca), n)
	var rep pe.Report
	if err == nil {
		rep, err = pe.EvaluateE(testTrials, refTrials, pe.Options{Seed: n.Seed})
	}
	fmt.Fprintf(cfg.Out, "  %-10s %-6s %-18s %s\n", stackName, cca, n.String(), orNA(err,
		"Conf=%.2f Conf-T=%.2f Δtput=%+.1f Mbps Δdelay=%+.1f ms",
		rep.Conformance, rep.ConformanceT, rep.DeltaThroughputMbps, rep.DeltaDelayMs))
	if err != nil {
		return nil
	}
	testEnv, refEnv, _ := envelopePair(testTrials, refTrials, n.Seed) // plotted best effort
	plot := &report.SVGPlot{Title: fmt.Sprintf("%s %s, %s (Conf %.2f)", stackName, cca, n.String(), rep.Conformance)}
	peSeries(plot, "reference", refEnv)
	peSeries(plot, stackName, testEnv)
	return savePlot(cfg, fileTag+".svg", plot)
}

// runFig7 renders the PEs of the low-conformance CUBIC and BBR
// implementations at 1 BDP.
func runFig7(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	fmt.Fprintln(cfg.Out, "PEs of low-conformance implementations (1 BDP):")
	for _, im := range []stacks.Impl{
		{Stack: "quiche", CCA: stacks.CUBIC},
		{Stack: "neqo", CCA: stacks.CUBIC},
		{Stack: "xquic", CCA: stacks.CUBIC},
		{Stack: "chromium", CCA: stacks.CUBIC},
		{Stack: "mvfst", CCA: stacks.BBR},
		{Stack: "xquic", CCA: stacks.BBR},
	} {
		if err := lowConfPE(cfg, rc, im.Stack, im.CCA, n, "fig7_"+im.Stack+"_"+string(im.CCA)); err != nil {
			return err
		}
	}
	return nil
}

// runFig8 renders xquic Reno PEs across buffer sizes.
func runFig8(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	fmt.Fprintln(cfg.Out, "xquic Reno PEs by buffer size:")
	for _, bdp := range []float64{0.5, 1, 3, 5} {
		n := cfg.net(20, 10*time.Millisecond, bdp, false)
		if err := lowConfPE(cfg, rc, "xquic", stacks.Reno, n, fmt.Sprintf("fig8_xquic_reno_%.1fbdp", bdp)); err != nil {
			return err
		}
	}
	return nil
}

// runFig9 renders mvfst BBR PEs at 1/3/5 BDP with the paper's metric
// annotations.
func runFig9(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	fmt.Fprintln(cfg.Out, "mvfst BBR PEs (paper: Conf ~0, Conf-T ~0.7, Δtput ~+9 at 1 BDP):")
	for _, bdp := range []float64{1, 3, 5} {
		n := cfg.net(20, 10*time.Millisecond, bdp, false)
		if err := lowConfPE(cfg, rc, "mvfst", stacks.BBR, n, fmt.Sprintf("fig9_mvfst_bbr_%.0fbdp", bdp)); err != nil {
			return err
		}
	}
	return nil
}

// runFig10 renders xquic BBR PEs at 1/3/5 BDP.
func runFig10(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	fmt.Fprintln(cfg.Out, "xquic BBR PEs (paper: conformance worsens in deep buffers):")
	for _, bdp := range []float64{1, 3, 5} {
		n := cfg.net(20, 10*time.Millisecond, bdp, false)
		if err := lowConfPE(cfg, rc, "xquic", stacks.BBR, n, fmt.Sprintf("fig10_xquic_bbr_%.0fbdp", bdp)); err != nil {
			return err
		}
	}
	return nil
}

// runFig14 compares xquic BBR before and after the cwnd-gain fix.
func runFig14(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	fixed, _ := stacks.Fixed("xquic", stacks.BBR)
	fmt.Fprintln(cfg.Out, "xquic BBR: original (cwnd gain 2.5) vs fixed (cwnd gain 2.0):")
	for _, bdp := range []float64{1, 3, 5} {
		n := cfg.net(20, 10*time.Millisecond, bdp, false)
		orig, err := evaluate(rc, core.Spec("xquic", stacks.BBR), kernelFlow(stacks.BBR), n)
		fix, ferr := evaluate(rc, core.Flow{Stack: fixed, CCA: stacks.BBR}, kernelFlow(stacks.BBR), n)
		if err == nil && ferr != nil {
			err = fmt.Errorf("fixed variant: %w", ferr)
		}
		fmt.Fprintf(cfg.Out, "  %.0f BDP: %s\n", bdp, orNA(err,
			"Conf %.2f -> %.2f   Conf-T %.2f -> %.2f   Δtput %+.1f -> %+.1f",
			orig.Conformance, fix.Conformance, orig.ConformanceT, fix.ConformanceT,
			orig.DeltaThroughputMbps, fix.DeltaThroughputMbps))
	}
	return nil
}

// runFig15 compares quiche CUBIC before and after disabling the
// RFC 8312bis rollback, including the throughput time series.
func runFig15(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	quiche := core.Spec("quiche", stacks.CUBIC)
	fixed, _ := stacks.Fixed("quiche", stacks.CUBIC)
	fixedFlow := core.Flow{Stack: fixed, CCA: stacks.CUBIC}

	orig, err := evaluate(rc, quiche, kernelFlow(stacks.CUBIC), n)
	fix, ferr := evaluate(rc, fixedFlow, kernelFlow(stacks.CUBIC), n)
	const metrics = "Conf=%.2f Conf-T=%.2f Δtput=%+.1f"
	fmt.Fprintln(cfg.Out, "quiche CUBIC: original "+orNA(err, metrics,
		orig.Conformance, orig.ConformanceT, orig.DeltaThroughputMbps))
	fmt.Fprintln(cfg.Out, "quiche CUBIC: RFC8312bis disabled "+orNA(ferr, metrics,
		fix.Conformance, fix.ConformanceT, fix.DeltaThroughputMbps))
	if err == nil && ferr == nil && fix.Conformance > orig.Conformance {
		fmt.Fprintln(cfg.Out, "  -> disabling the spurious-loss rollback improves conformance (paper: 0.08 -> 0.55)")
	}

	// Throughput time series of one trial, original vs fixed vs reference.
	const seriesTitle = "throughput time series (Mbps, 10-RTT windows, every 20th window):"
	resOrig, err := core.RunTrialE(quiche, kernelFlow(stacks.CUBIC), n, 0)
	resFix, ferr := core.RunTrialE(fixedFlow, kernelFlow(stacks.CUBIC), n, 0)
	if err = errors.Join(err, ferr); err != nil {
		return printNA(cfg, seriesTitle+" ", err)
	}
	so, sf := resOrig.Series(0, n), resFix.Series(0, n)
	fmt.Fprintln(cfg.Out, seriesTitle)
	fmt.Fprintln(cfg.Out, "  t(s)   original  fixed  competitor(orig run)")
	co := resOrig.Series(1, n)
	for i := 0; i < len(so) && i < len(sf); i += 20 {
		fmt.Fprintf(cfg.Out, "  %5.1f  %7.1f  %6.1f  %6.1f\n",
			so[i].Time.Seconds(), so[i].Mbps, sf[i].Mbps, co[i].Mbps)
	}
	return nil
}
