package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestGolden runs the example and compares its stdout, listener port
// masked, with testdata/stdout.golden.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`127\.0\.0\.1:\d+`).ReplaceAll(out.Bytes(), []byte("127.0.0.1:PORT"))
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from testdata/stdout.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
