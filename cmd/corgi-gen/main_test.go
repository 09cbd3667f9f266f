package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"corgi/internal/node"
)

// TestFlagsMatchHelpAndREADME holds the two binaries that share the region
// flags to what operators were told. Each one's -h is the bytes of
// testdata/<binary>.help (written by the binaries of the commit before the
// flags moved into binders, so a name, default or help text that drifts in
// either binder shows here), and the README's Binaries table names every
// flag that exists and none that does not.
func TestFlagsMatchHelpAndREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile("`-([a-z-]+)")
	total := 0
	for binary, bind := range map[string]func(*flag.FlagSet){
		"corgi-server": func(fs *flag.FlagSet) { new(node.Config).Bind(fs) },
		"corgi-gen":    func(fs *flag.FlagSet) { new(options).bind(fs) },
	} {
		var help bytes.Buffer
		fs := flag.NewFlagSet(binary, flag.ContinueOnError)
		fs.SetOutput(&help)
		bind(fs)
		if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
			t.Fatalf("%s -h: %v", binary, err)
		}
		want, err := os.ReadFile("testdata/" + binary + ".help")
		if err != nil {
			t.Fatal(err)
		}
		if help.String() != string(want) {
			t.Errorf("%s -h moved:\n%s\nwant:\n%s", binary, help.String(), want)
		}

		var exist, documented []string
		fs.VisitAll(func(f *flag.Flag) { exist = append(exist, f.Name) })
		total += len(exist)
		_, row, ok := strings.Cut(string(readme), "| [`"+binary+"`]")
		if !ok {
			t.Fatalf("README has no Binaries row for %s", binary)
		}
		row, _, _ = strings.Cut(row, "\n")
		seen := map[string]bool{}
		for _, m := range named.FindAllStringSubmatch(row, -1) {
			if !seen[m[1]] {
				seen[m[1]] = true
				documented = append(documented, m[1])
			}
		}
		sort.Strings(documented)
		if strings.Join(documented, " ") != strings.Join(exist, " ") {
			t.Errorf("%s: README names\n  %v\nthe binary has\n  %v", binary, documented, exist)
		}
	}
	if total != 33+18 {
		t.Errorf("corgi-server and corgi-gen have %d flags between them, want 33 + 18", total)
	}
}
