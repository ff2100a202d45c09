package bench

import (
	"errors"
	"strings"
	"testing"

	"wanshuffle/internal/core"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/workloads"
)

// TestAblateSmoke runs every ablation at tiny scale and sanity-checks the
// qualitative relationships DESIGN.md documents.
func TestAblateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is expensive")
	}
	rows, err := Ablate(Options{Runs: 2, BaseSeed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	byStudy := map[string][]AblationRow{}
	for _, r := range rows {
		byStudy[r.study] = append(byStudy[r.study], r)
	}

	// Pipelining in the micro-scenario: pushing at map completion wins.
	micro := byStudy["pipelining[Fig.1 micro]"]
	if len(micro) != 2 {
		t.Fatalf("micro pipelining rows = %d", len(micro))
	}
	if micro[0].jct.TrimmedMean >= micro[1].jct.TrimmedMean {
		t.Errorf("pipelined %.2f not below barrier %.2f", micro[0].jct.TrimmedMean, micro[1].jct.TrimmedMean)
	}

	// Aggregator rule: Eq. 2's choice moves the least traffic.
	rule := byStudy["aggregator-rule[PageRank]"]
	if len(rule) != 3 {
		t.Fatalf("aggregator rows = %d", len(rule))
	}
	for _, r := range rule[1:] {
		if rule[0].crossMB.TrimmedMean >= r.crossMB.TrimmedMean {
			t.Errorf("Eq.2 rule traffic %.0f not below %q's %.0f",
				rule[0].crossMB.TrimmedMean, r.variant, r.crossMB.TrimmedMean)
		}
	}

	// Top-K: K=1 moves the least (Sec. III-B: improve s1/S).
	topk := byStudy["aggregate-top-K[TeraSort]"]
	if len(topk) != 3 {
		t.Fatalf("top-K rows = %d", len(topk))
	}
	for _, r := range topk[1:] {
		if topk[0].crossMB.TrimmedMean >= r.crossMB.TrimmedMean {
			t.Errorf("K=1 traffic %.0f not below %s's %.0f",
				topk[0].crossMB.TrimmedMean, r.variant, r.crossMB.TrimmedMean)
		}
	}

	// Burst penalty: baseline JCT grows monotonically with β.
	burst := byStudy["burst-penalty[TeraSort/Spark]"]
	for i := 1; i < len(burst); i++ {
		if burst[i].jct.TrimmedMean <= burst[i-1].jct.TrimmedMean {
			t.Errorf("β sweep not monotone: %q %.1f <= %q %.1f",
				burst[i].variant, burst[i].jct.TrimmedMean, burst[i-1].variant, burst[i-1].jct.TrimmedMean)
		}
	}

	// Multi-tenancy rows present with both schemes.
	if len(byStudy["multi-tenancy[3×WordCount]"]) != 2 {
		t.Fatalf("multi-tenancy rows = %d", len(byStudy["multi-tenancy[3×WordCount]"]))
	}

	out := FormatAblation(rows)
	for _, study := range []string{"pipelining", "aggregator-rule", "aggregate-top-K", "burst-penalty", "multi-tenancy", "jitter"} {
		if !strings.Contains(out, study) {
			t.Errorf("formatted ablation missing %q", study)
		}
	}
}

// TestAblateValidates holds the ablations to -validate: they go through
// the one runner, so a variant whose output check always fails must fail
// the study when Validate is set, and only then.
func TestAblateValidates(t *testing.T) {
	wrong := workloads.Sort()
	wrong.Check = func(_, _ []rdd.Pair) error { return errors.New("never right") }
	study := []variant{{study: "s", label: "wrong", workload: wrong, scheme: core.SchemeSpark}}

	opts := Options{Runs: 2, BaseSeed: 1, Scale: 0.05}
	if _, err := ablate(study, opts); err != nil {
		t.Fatalf("unvalidated study failed: %v", err)
	}
	opts.Validate = true
	_, err := ablate(study, opts)
	if err == nil || !strings.Contains(err.Error(), "never right") {
		t.Fatalf("validated study returned %v, want the check's error", err)
	}
	if !strings.Contains(err.Error(), "s/wrong seed 1") {
		t.Errorf("error %q does not name the first failing cell", err)
	}
}
