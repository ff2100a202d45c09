package bench

import (
	"fmt"
	"math"
	"strings"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/stats"
	"wanshuffle/internal/workloads"
)

// AblationRow is one variant's aggregate outcome.
type AblationRow struct {
	Study   string
	Variant string
	JCT     stats.Summary
	CrossMB stats.Summary
}

// runVariant sweeps one workload × scheme under a tweaked engine config
// and optionally tweaked workload options.
func runVariant(w *workloads.Workload, scheme core.Scheme, opts Options, mutate func(*exec.Config), wlMutate func(*workloads.Options)) (AblationRow, error) {
	opts = opts.withDefaults()
	var jcts, cross []float64
	for i := 0; i < opts.Runs; i++ {
		seed := opts.BaseSeed + int64(i)
		cfg := core.Config{
			Seed:   seed,
			Scheme: scheme,
			Exec: exec.Config{
				Net: simnet.Config{JitterAmplitude: opts.Jitter},
			},
		}
		if mutate != nil {
			mutate(&cfg.Exec)
		}
		ctx := core.NewContext(cfg)
		wlOpts := workloads.Options{Seed: seed, Scale: opts.Scale}
		if wlMutate != nil {
			wlMutate(&wlOpts)
		}
		inst := w.Make(ctx, wlOpts)
		rep, err := ctx.Save(inst.Target)
		if err != nil {
			return AblationRow{}, err
		}
		jcts = append(jcts, rep.JCT)
		cross = append(cross, rep.CrossDCBytes/1e6)
	}
	return AblationRow{JCT: stats.Summarize(jcts), CrossMB: stats.Summarize(cross)}, nil
}

// Ablate runs the design-choice ablations DESIGN.md calls out:
//
//   - pipelining: pushes at map completion (the paper's design) vs held at
//     a phase barrier;
//   - aggregator selection: Eq. 2's largest-share rule vs random vs worst;
//   - aggregation spread: top-K ∈ {1, 2, 3} datacenters;
//   - WAN burst degradation β (the fetch-storm model) including β = 0,
//     the idealized fluid-TCP network;
//   - bandwidth jitter amplitude, the driver of the baseline's variance.
//
// TeraSort exercises the network-heavy path; PageRank the iterative one.
func Ablate(opts Options) ([]AblationRow, error) {
	opts = opts.withDefaults()
	var rows []AblationRow
	add := func(study, variant string, row AblationRow, err error) error {
		if err != nil {
			return fmt.Errorf("bench: ablation %s/%s: %w", study, variant, err)
		}
		row.Study = study
		row.Variant = variant
		rows = append(rows, row)
		return nil
	}

	ts := workloads.TeraSort()
	pr := workloads.PageRank()

	// 1a. Pipelining in the Fig. 1 micro-scenario, where map completions
	// stagger heavily — the regime the mechanism targets.
	for _, noPipe := range []bool{false, true} {
		name := "pushed at map completion (paper)"
		if noPipe {
			name = "held at phase barrier"
		}
		noPipe := noPipe
		var jcts, cross []float64
		for i := 0; i < opts.Runs; i++ {
			res, err := microScenario(true, false, opts.BaseSeed+int64(i), func(c *exec.Config) { c.NoPipelining = noPipe })
			if err != nil {
				return nil, fmt.Errorf("bench: ablation pipelining micro: %w", err)
			}
			jcts = append(jcts, res.JCT)
			cross = append(cross, res.CrossDCMB)
		}
		row := AblationRow{JCT: stats.Summarize(jcts), CrossMB: stats.Summarize(cross)}
		if err := add("pipelining[Fig.1 micro]", name, row, nil); err != nil {
			return nil, err
		}
	}

	// 1b. Pipelining at workload scale: 96 map partitions (two task waves
	// per core) give only a mild stagger, bounding the effect.
	multiWave := func(o *workloads.Options) { o.MapParts = 96 }
	for _, noPipe := range []bool{false, true} {
		name := "pushed at map completion (paper)"
		if noPipe {
			name = "held at phase barrier"
		}
		noPipe := noPipe
		row, err := runVariant(ts, core.SchemeAggShuffle, opts, func(c *exec.Config) { c.NoPipelining = noPipe }, multiWave)
		if err := add("pipelining[TeraSort,96 maps]", name, row, err); err != nil {
			return nil, err
		}
	}

	// 2. Aggregator selection rule.
	for _, p := range []struct {
		name   string
		policy plan.AggregatorPolicy
	}{
		{"largest input share (Eq. 2)", plan.AggregatorBest},
		{"random datacenter", plan.AggregatorRandom},
		{"smallest input share", plan.AggregatorWorst},
	} {
		p := p
		row, err := runVariant(pr, core.SchemeAggShuffle, opts, func(c *exec.Config) { c.AggregatorPolicy = p.policy }, nil)
		if err := add("aggregator-rule[PageRank]", p.name, row, err); err != nil {
			return nil, err
		}
	}

	// 3. Aggregating into the top-K datacenters. Uses the explicit-style
	// TeraSort so K applies to the raw-input transfer.
	for k := 1; k <= 3; k++ {
		k := k
		w := teraSortTopK(k)
		row, err := runVariant(w, core.SchemeManual, opts, nil, nil)
		if err := add("aggregate-top-K[TeraSort]", fmt.Sprintf("K=%d", k), row, err); err != nil {
			return nil, err
		}
	}

	// 4. WAN burst degradation β, on the Spark baseline.
	for _, beta := range []float64{-1, 0.06, 0.12, 0.24} {
		name := fmt.Sprintf("β=%.2f", beta)
		if beta < 0 {
			name = "β=0 (idealized fluid TCP)"
		}
		beta := beta
		row, err := runVariant(ts, core.SchemeSpark, opts, func(c *exec.Config) { c.Net.BurstPenalty = beta }, nil)
		if err := add("burst-penalty[TeraSort/Spark]", name, row, err); err != nil {
			return nil, err
		}
	}

	// 4b. Multi-tenancy (Sec. IV-E limitation discussion): three
	// concurrent WordCounts share the cluster; Push/Aggregate must remain
	// beneficial even while jobs contend for the aggregator datacenter.
	for _, scheme := range []core.Scheme{core.SchemeSpark, core.SchemeAggShuffle} {
		var slowest, cross []float64
		for i := 0; i < opts.Runs; i++ {
			seed := opts.BaseSeed + int64(i)
			ctx := core.NewContext(core.Config{
				Seed: seed, Scheme: scheme,
				Exec: exec.Config{Net: simnet.Config{JitterAmplitude: opts.Jitter}},
			})
			wc := workloads.WordCount()
			var targets []*rdd.RDD
			for j := 0; j < 3; j++ {
				inst := wc.Make(ctx, workloads.Options{Seed: seed + int64(100*j), Scale: opts.Scale})
				targets = append(targets, inst.Target)
			}
			reports, err := ctx.RunConcurrently(targets)
			if err != nil {
				return nil, fmt.Errorf("bench: multi-tenancy ablation: %w", err)
			}
			var worst, crossTotal float64
			for _, rep := range reports {
				if rep.JCT > worst {
					worst = rep.JCT
				}
			}
			crossTotal = reports[len(reports)-1].CrossDCBytes / 1e6
			slowest = append(slowest, worst)
			cross = append(cross, crossTotal)
		}
		row := AblationRow{JCT: stats.Summarize(slowest), CrossMB: stats.Summarize(cross)}
		if err := add("multi-tenancy[3×WordCount]", fmt.Sprintf("%v (slowest of 3)", scheme), row, nil); err != nil {
			return nil, err
		}
	}

	// 4c. Node failure (beyond the paper's reducer-retry scenario): a
	// mapper's host dies after the map stage. Fetch-based shuffle loses
	// the shuffle files and recomputes; pushed shuffle input survives in
	// the aggregator datacenter.
	for _, push := range []bool{false, true} {
		name := "fetch (recompute lost maps)"
		if push {
			name = "push (output survives mapper death)"
		}
		var jcts []float64
		for i := 0; i < opts.Runs; i++ {
			seed := opts.BaseSeed + int64(i)
			clean, err := microScenario(push, false, seed)
			if err != nil {
				return nil, fmt.Errorf("bench: node-failure ablation: %w", err)
			}
			failed, err := microScenario(push, false, seed, func(c *exec.Config) {
				c.HostFailures = []exec.HostFailure{{Host: 0, At: clean.JCT * 0.55}}
			})
			if err != nil {
				return nil, fmt.Errorf("bench: node-failure ablation: %w", err)
			}
			jcts = append(jcts, failed.JCT-clean.JCT)
		}
		row := AblationRow{JCT: stats.Summarize(jcts)}
		if err := add("node-failure-penalty[Fig.1 micro]", name, row, nil); err != nil {
			return nil, err
		}
	}

	// 5. Jitter amplitude, Spark baseline vs AggShuffle.
	for _, amp := range []float64{-1, 0.25, 0.4} {
		for _, scheme := range []core.Scheme{core.SchemeSpark, core.SchemeAggShuffle} {
			o := opts
			o.Jitter = amp
			row, err := runVariant(ts, scheme, o, nil, nil)
			if err := add("jitter[TeraSort]", fmt.Sprintf("amp=%.2f %v", math.Max(amp, 0), scheme), row, err); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// teraSortTopK is TeraSort with an explicit top-K raw-input aggregation.
func teraSortTopK(k int) *workloads.Workload {
	w := workloads.TeraSortExplicitTopK(k)
	return w
}

// FormatAblation renders ablation rows grouped by study.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations — design choices isolated (trimmed mean over runs)\n")
	last := ""
	for _, r := range rows {
		if r.Study != last {
			fmt.Fprintf(&b, "\n%s\n", r.Study)
			last = r.Study
		}
		fmt.Fprintf(&b, "  %-36s JCT %7.1f s [%6.1f–%6.1f]   cross-DC %7.0f MB\n",
			r.Variant, r.JCT.TrimmedMean, r.JCT.Q1, r.JCT.Q3, r.CrossMB.TrimmedMean)
	}
	return b.String()
}
