package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// newFlagSet is the binary's flag set, printing to out.
func newFlagSet(out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("corgi-client", flag.ContinueOnError)
	fs.SetOutput(out)
	new(options).bind(fs)
	return fs
}

// TestFlagsMatchHelpAndREADME is cmd/corgi-gen's test of the same name for
// this binary. Its -h is the bytes of testdata/corgi-client.help, written
// by the binary of the commit before the flags moved into bind; README's
// Binaries row names every flag that exists and none that does not; and
// every corgi-client command line the docs tell a reader to type parses
// (README's cluster quick-start once passed a -count the binary never had).
func TestFlagsMatchHelpAndREADME(t *testing.T) {
	var help bytes.Buffer
	fs := newFlagSet(&help)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	want, err := os.ReadFile("testdata/corgi-client.help")
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
	if len(exist) != 16 {
		t.Errorf("corgi-client has %d flags, want 16", len(exist))
	}
	_, row, ok := strings.Cut(string(readme), "| [`corgi-client`]")
	if !ok {
		t.Fatal("README has no Binaries row for corgi-client")
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

	skill, err := os.ReadFile("../../.claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, doc := range []string{string(readme), string(skill)} {
		doc = strings.ReplaceAll(doc, "\\\n", " ")
		for _, line := range strings.Split(doc, "\n") {
			_, cmd, ok := strings.Cut(line, "./cmd/corgi-client ")
			if !ok {
				continue
			}
			lines++
			cmd, _, _ = strings.Cut(cmd, "#")
			if err := newFlagSet(io.Discard).Parse(shellWords(cmd)); err != nil {
				t.Errorf("documented command does not parse: corgi-client %s: %v", cmd, err)
			}
		}
	}
	if lines < 2 {
		t.Errorf("found %d corgi-client command lines in README and the verify skill, want the quick-start's and the skill's", lines)
	}
}

// shellWords splits a documented command line the way a shell would, as far
// as the docs go: blanks separate, double and single quotes group.
func shellWords(s string) []string {
	var (
		words []string
		word  strings.Builder
		quote rune
		open  bool
	)
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote == 0 && (r == '"' || r == '\''):
			quote, open = r, true
		case quote == 0 && (r == ' ' || r == '\t'):
			if open {
				words = append(words, word.String())
				word.Reset()
				open = false
			}
		default:
			word.WriteRune(r)
			open = true
		}
	}
	if open {
		words = append(words, word.String())
	}
	return words
}

// TestUsageErrors: flag values that parse but name no run.
func TestUsageErrors(t *testing.T) {
	for args, want := range map[string]string{
		"":                    "",
		"-reports 3 -remote":  "",
		"-local-draw":         "",
		"-reports 0":          "-reports must be >= 1",
		"-reports -2 -remote": "-reports must be >= 1",
		"-remote -local-draw": "-remote and -local-draw are different paths to a report: pick one",
	} {
		var o options
		fs := flag.NewFlagSet("corgi-client", flag.ContinueOnError)
		o.bind(fs)
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := o.check(); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("corgi-client %s: %q, want %q", args, got, want)
		}
	}
}
