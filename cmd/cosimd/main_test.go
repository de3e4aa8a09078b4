package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeFlagsRejected: each numeric flag set below zero is an
// error naming it, returned before the manifest file is opened (and so
// before anything listens).
func TestNegativeFlagsRejected(t *testing.T) {
	for _, flag := range []string{
		"-workers", "-queue-cap", "-result-cache-mb", "-trace-mb",
		"-retain", "-manifest-max-mb", "-drain",
	} {
		t.Run(flag, func(t *testing.T) {
			value := "-3"
			if flag == "-drain" {
				value = "-3s"
			}
			manifest := filepath.Join(t.TempDir(), "m.jsonl")
			err := run([]string{"-addr", "127.0.0.1:0", "-manifest", manifest, flag, value})
			if err == nil || !strings.Contains(err.Error(), flag+" ") || !strings.Contains(err.Error(), "negative") {
				t.Fatalf("%s %s: err = %v, want one naming the flag as negative", flag, value, err)
			}
			if _, err := os.Stat(manifest); !os.IsNotExist(err) {
				t.Errorf("%s %s: manifest opened before the flags were checked (stat err %v)", flag, value, err)
			}
		})
	}
}
