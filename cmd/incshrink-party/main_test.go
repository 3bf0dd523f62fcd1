package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incshrink/internal/wire"
)

// TestConfigUnknownKeyRefused: a party configuration file is decoded
// strictly. A key the format does not have — the retired "snapshot_at", or a
// misspelled one — fails runParty with an error naming it, before the party
// listens: the configured address is held by the test, so a party that got
// as far as listening would fail on it instead. The config the smoke writes
// (writeConfig) loads back unchanged.
func TestConfigUnknownKeyRefused(t *testing.T) {
	dir := t.TempDir()
	cert0, key0, err := wire.GenerateCert(dir, "party0")
	if err != nil {
		t.Fatal(err)
	}
	cert1, _, err := wire.GenerateCert(dir, "party1")
	if err != nil {
		t.Fatal(err)
	}
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	fc := fileConfig{Role: 0, Seed: 7, Steps: 3, Listen: held.Addr().String(), Cert: cert0, Key: key0, PeerCert: cert1}

	path := filepath.Join(dir, "party0.json")
	if err := writeConfig(path, fc); err != nil {
		t.Fatal(err)
	}
	if got, err := loadConfig(path); err != nil || got != fc {
		t.Fatalf("loadConfig(writeConfig(%+v)) = %+v, %v", fc, got, err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"snapshot_at", "peer_crt"} {
		bad := filepath.Join(dir, key+".json")
		b := strings.Replace(string(written), "{", `{"`+key+`": 5,`, 1)
		if err := os.WriteFile(bad, []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
		err := runParty(bad, filepath.Join(dir, "report.json"))
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("a config with key %q: runParty = %v, want an error naming the key", key, err)
		}
	}
}
