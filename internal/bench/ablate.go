package bench

import (
	"fmt"
	"math"
	"strings"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/stats"
	"wanshuffle/internal/workloads"
)

// AblationRow is one variant's aggregate outcome.
type AblationRow struct {
	study   string
	variant string
	jct     stats.Summary
	crossMB stats.Summary
}

// Ablate runs the design-choice ablations DESIGN.md calls out; ablations
// lists them.
func Ablate(opts Options) ([]AblationRow, error) {
	return ablate(ablations(), opts)
}

func ablate(variants []variant, opts Options) ([]AblationRow, error) {
	series, err := summarize(variants, opts)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(variants))
	for i, v := range variants {
		rows[i] = AblationRow{study: v.study, variant: v.label, jct: series[i].JCT, crossMB: series[i].CrossDCMB}
	}
	return rows, nil
}

// ablations is the table of studies:
//
//   - pipelining: pushes at map completion (the paper's design) vs held at
//     a phase barrier;
//   - aggregator selection: Eq. 2's largest-share rule vs random vs worst;
//   - aggregation spread: top-K ∈ {1, 2, 3} datacenters;
//   - WAN burst degradation β (the fetch-storm model) including β = 0,
//     the idealized fluid-TCP network;
//   - multi-tenancy and mapper-node failure;
//   - bandwidth jitter amplitude: means and spread barely move with it,
//     because the baseline's variance comes from placement randomness
//     compounding with slow paths.
//
// TeraSort exercises the network-heavy path; PageRank the iterative one.
func ablations() []variant {
	ts := workloads.TeraSort()
	pr := workloads.PageRank()
	var vs []variant
	add := func(study string, v variant) {
		v.study = study
		vs = append(vs, v)
	}

	// 1a. Pipelining in the Fig. 1 micro-scenario, where map completions
	// stagger heavily — the regime the mechanism targets.
	pipelining := []variant{
		{label: "pushed at map completion (paper)"},
		{label: "held at phase barrier", engine: func(c *exec.Config) { c.NoPipelining = true }},
	}
	for _, p := range pipelining {
		add("pipelining[Fig.1 micro]", variant{label: p.label, engine: p.engine, cell: microPush})
	}

	// 1b. Pipelining at workload scale: 96 map partitions (two task waves
	// per core) give only a mild stagger, bounding the effect.
	multiWave := func(o *workloads.Options) { o.MapParts = 96 }
	for _, p := range pipelining {
		add("pipelining[TeraSort,96 maps]", variant{label: p.label, engine: p.engine,
			workload: ts, scheme: core.SchemeAggShuffle, input: multiWave})
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
		add("aggregator-rule[PageRank]", variant{label: p.name, workload: pr, scheme: core.SchemeAggShuffle,
			engine: func(c *exec.Config) { c.AggregatorPolicy = p.policy }})
	}

	// 3. Aggregating into the top-K datacenters. Uses the explicit-style
	// TeraSort so K applies to the raw-input transfer.
	for k := 1; k <= 3; k++ {
		add("aggregate-top-K[TeraSort]", variant{label: fmt.Sprintf("K=%d", k),
			workload: workloads.TeraSortExplicitTopK(k), scheme: core.SchemeManual})
	}

	// 4. WAN burst degradation β, on the Spark baseline.
	for _, beta := range []float64{-1, 0.06, 0.12, 0.24} {
		name := fmt.Sprintf("β=%.2f", beta)
		if beta < 0 {
			name = "β=0 (idealized fluid TCP)"
		}
		add("burst-penalty[TeraSort/Spark]", variant{label: name, workload: ts, scheme: core.SchemeSpark,
			engine: func(c *exec.Config) { c.Net.BurstPenalty = beta }})
	}

	// 4b. Multi-tenancy (Sec. IV-E limitation discussion): three
	// concurrent WordCounts share the cluster; Push/Aggregate must remain
	// beneficial even while jobs contend for the aggregator datacenter.
	for _, scheme := range []core.Scheme{core.SchemeSpark, core.SchemeAggShuffle} {
		add("multi-tenancy[3×WordCount]", variant{label: fmt.Sprintf("%v (slowest of 3)", scheme),
			workload: workloads.WordCount(), scheme: scheme, tenants: 3})
	}

	// 4c. Node failure (beyond the paper's reducer-retry scenario): mapper
	// host 0 dies at 0.55 × the clean JCT, after the map stage and its
	// pushes. Fetch-based shuffle loses the shuffle files and recomputes;
	// pushed shuffle input survives in the aggregator datacenter. Dying at
	// 0.3 × the clean JCT, halfway through host 0's push of partition 2,
	// loses that push with the host, and the partition's map runs again.
	add("node-failure-penalty[Fig.1 micro]", variant{label: "fetch (recompute lost maps)", cell: mapperDeathPenalty(false, 0.55)})
	add("node-failure-penalty[Fig.1 micro]", variant{label: "push (output survives mapper death)", cell: mapperDeathPenalty(true, 0.55)})
	add("node-failure-penalty[Fig.1 micro]", variant{label: "push (mapper dies mid-push)", cell: mapperDeathPenalty(true, 0.3)})

	// 5. Jitter amplitude, Spark baseline vs AggShuffle.
	for _, amp := range []float64{-1, 0.25, 0.4} {
		for _, scheme := range []core.Scheme{core.SchemeSpark, core.SchemeAggShuffle} {
			add("jitter[TeraSort]", variant{label: fmt.Sprintf("amp=%.2f %v", math.Max(amp, 0), scheme), workload: ts, scheme: scheme,
				engine: func(c *exec.Config) { c.Net.JitterAmplitude = amp }})
		}
	}
	return vs
}

// microPush is the cell of the Fig. 1 micro-scenario under push, with the
// variant's engine knobs.
func microPush(v variant, seed int64) (outcome, error) {
	res, err := microScenario(true, seed, v.engine)
	if err != nil {
		return outcome{}, err
	}
	return outcome{jct: res.JCT, crossMB: res.CrossDCMB}, nil
}

// mapperDeathPenalty is the cell that reports the JCT mapper host 0 dying
// at frac × the clean JCT costs the micro-scenario.
func mapperDeathPenalty(push bool, frac float64) func(variant, int64) (outcome, error) {
	return func(_ variant, seed int64) (outcome, error) {
		res, err := microFailure(push, seed, func(clean *microResult, c *exec.Config) {
			c.HostFailures = []exec.HostFailure{{Host: 0, At: clean.JCT * frac}}
		})
		if err != nil {
			return outcome{}, err
		}
		return outcome{jct: res.Penalty}, nil
	}
}

// FormatAblation renders ablation rows grouped by study.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations — design choices isolated (trimmed mean over runs)\n")
	last := ""
	for _, r := range rows {
		if r.study != last {
			fmt.Fprintf(&b, "\n%s\n", r.study)
			last = r.study
		}
		fmt.Fprintf(&b, "  %-36s JCT %7.1f s [%6.1f–%6.1f]   cross-DC %7.0f MB\n",
			r.variant, r.jct.TrimmedMean, r.jct.Q1, r.jct.Q3, r.crossMB.TrimmedMean)
	}
	return b.String()
}
