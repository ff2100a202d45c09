package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestFlagSetUnchanged pins the CLI surface: refactors of the run path must
// not add, drop or rename a flag.
func TestFlagSetUnchanged(t *testing.T) {
	want := strings.Fields(`aggregator chrome chunk-records compress dial-timeout gantt
		io-timeout live matrix memory-budget
		report scale scheme seed spill-dir telemetry-addr
		telemetry-linger topology validate workload`)
	var got []string
	newFlagSet(&options{}, &rawFlags{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag set changed:\n got %v\nwant %v", got, want)
	}
}

// TestEveryFlagDocumentedInREADME keeps the usage strings and README.md in
// step: the usage string describes a flag, README.md says what it is for.
func TestEveryFlagDocumentedInREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	newFlagSet(&options{}, &rawFlags{}).VisitAll(func(f *flag.Flag) {
		if f.Usage == "" {
			t.Errorf("-%s has no usage string", f.Name)
		}
		if !regexp.MustCompile(`(^|[^\w-])-` + f.Name + `([^\w-]|$)`).Match(readme) {
			t.Errorf("README.md never mentions -%s", f.Name)
		}
	})
}
