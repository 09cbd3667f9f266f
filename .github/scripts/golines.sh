#!/bin/sh
# Prints the number of non-test Go lines under cmd/, internal/ and corgi.go:
# the code size ROADMAP aim 2 tracks. Run from the repository root.
set -eu
{
	cat corgi.go
	find cmd internal -name '*.go' ! -name '*_test.go' -exec cat {} +
} | wc -l | tr -d ' '
