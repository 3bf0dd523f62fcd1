package main

import "testing"

// TestRunsToCompletion runs the example end to end. Every failure in it is a
// log.Fatal, which exits the test binary and fails the package.
func TestRunsToCompletion(t *testing.T) { main() }
