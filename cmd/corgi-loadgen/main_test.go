package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFlagsMatchHelpAndREADME is cmd/corgi-gen's test of the same name for
// this binary. Its -h is the bytes of testdata/corgi-loadgen.help, written
// by the binary of the commit before the flags moved into bind, and
// README's Binaries row names every flag that exists and none that does
// not.
func TestFlagsMatchHelpAndREADME(t *testing.T) {
	var help bytes.Buffer
	fs := flag.NewFlagSet("corgi-loadgen", flag.ContinueOnError)
	fs.SetOutput(&help)
	new(options).bind(fs)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	want, err := os.ReadFile("testdata/corgi-loadgen.help")
	if err != nil {
		t.Fatal(err)
	}
	if help.String() != string(want) {
		t.Errorf("-h moved:\n%s\nwant:\n%s", help.String(), want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var exist []string
	fs.VisitAll(func(f *flag.Flag) { exist = append(exist, f.Name) })
	if len(exist) != 23 {
		t.Errorf("corgi-loadgen has %d flags, want 23", len(exist))
	}
	_, row, ok := strings.Cut(string(readme), "| [`corgi-loadgen`]")
	if !ok {
		t.Fatal("README has no Binaries row for corgi-loadgen")
	}
	row, _, _ = strings.Cut(row, "\n")
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile("`-([a-z0-9-]+)").FindAllStringSubmatch(row, -1) {
		seen[m[1]] = true
	}
	documented := make([]string, 0, len(seen))
	for name := range seen {
		documented = append(documented, name)
	}
	sort.Strings(documented)
	if strings.Join(documented, " ") != strings.Join(exist, " ") {
		t.Errorf("README names\n  %v\nthe binary has\n  %v", documented, exist)
	}
}
