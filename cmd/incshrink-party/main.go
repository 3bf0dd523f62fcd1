// Command incshrink-party runs one outsourcing server of the two-party
// IncShrink runtime as its own OS process, speaking the length-prefixed
// frame protocol over mutually-authenticated TLS. Two of these processes
// executing the same configuration complete a session byte-identical to the
// in-process loopback runtime — the transport-independence contract the
// internal/party tests pin and the -smoke harness re-checks end to end over
// a real socket pair.
//
// Modes:
//
//	incshrink-party -config party0.json [-out report.json]
//	    Run one party. Role 0 listens, role 1 dials (with retry).
//	incshrink-party -gencert DIR -name NAME
//	    Generate a self-signed certificate pair for one party.
//	incshrink-party -smoke [-bench BENCH_wire.json]
//	    Spawn both parties as child processes over localhost TLS with
//	    temp-dir certificates (smokeSteps steps, seed smokeSeed), compare
//	    their reports against an in-process loopback reference, require the
//	    measured wire rounds/bytes to equal the mpc cost-model predictions,
//	    and write the wire benchmark report.
//
// Config file format (JSON; a key not listed here is an error):
//
//	{
//	  "role": 0,                      // 0 listens, 1 dials
//	  "seed": 1234,                   // shared deployment seed
//	  "steps": 12,                    // protocol steps before the GMW segment
//	  "listen": "127.0.0.1:7401",     // role 0: bind address
//	  "peer": "127.0.0.1:7401",       // role 1: role 0's address
//	  "cert": "party0.crt",           // this party's certificate
//	  "key": "party0.key",            // this party's private key
//	  "peer_cert": "party1.crt"       // pinned peer certificate
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"incshrink/internal/party"
	"incshrink/internal/wire"
)

// maxFrame bounds incoming frame payloads: the largest legitimate frame is
// the GMW tuple block (two bytes per AND gate, 468 for a session), so 64 KiB
// is generous without letting a corrupt length prefix allocate unbounded
// memory.
const maxFrame = 1 << 16

// The smoke's session: BENCH_wire.json records the wire cost of exactly this
// configuration.
const (
	smokeSteps = 12
	smokeSeed  = 1234
)

type fileConfig struct {
	Role     int    `json:"role"`
	Seed     int64  `json:"seed"`
	Steps    int    `json:"steps"`
	Listen   string `json:"listen,omitempty"`
	Peer     string `json:"peer,omitempty"`
	Cert     string `json:"cert"`
	Key      string `json:"key"`
	PeerCert string `json:"peer_cert"`
}

func (fc fileConfig) sessionConfig() party.Config {
	return party.Config{Role: fc.Role, Seed: fc.Seed, Steps: fc.Steps}
}

// loadConfig reads and validates a party configuration file. It is decoded
// strictly, as the server decodes its create body: an unknown (or
// misspelled) key is an error naming it, not a setting silently dropped.
func loadConfig(path string) (fileConfig, error) {
	var fc fileConfig
	f, err := os.Open(path)
	if err != nil {
		return fc, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return fc, fmt.Errorf("parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fc, fmt.Errorf("parsing %s: unexpected data after the configuration", path)
	}
	return fc, fc.sessionConfig().Validate()
}

func main() {
	var (
		configPath = flag.String("config", "", "party configuration file (JSON)")
		outPath    = flag.String("out", "", "write the session report JSON here (default stdout)")
		gencertDir = flag.String("gencert", "", "generate a certificate pair into this directory and exit")
		certName   = flag.String("name", "party", "certificate basename for -gencert")
		smoke      = flag.Bool("smoke", false, "run the two-process localhost TLS smoke")
		benchPath  = flag.String("bench", "BENCH_wire.json", "smoke: write the wire benchmark report here")
	)
	flag.Parse()

	var err error
	switch {
	case *gencertDir != "":
		err = runGencert(*gencertDir, *certName)
	case *smoke:
		err = runSmoke(*benchPath)
	case *configPath != "":
		err = runParty(*configPath, *outPath)
	default:
		err = fmt.Errorf("one of -config, -gencert or -smoke is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "incshrink-party:", err)
		os.Exit(1)
	}
}

func runGencert(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cert, key, err := wire.GenerateCert(dir, name)
	if err != nil {
		return err
	}
	fmt.Println(cert)
	fmt.Println(key)
	return nil
}

// connect establishes this party's TLS connection: role 0 binds and accepts
// one peer, role 1 dials with retry until the listener is up.
func connect(fc fileConfig) (wire.Conn, error) {
	files := wire.TLSFiles{Cert: fc.Cert, Key: fc.Key, PeerCert: fc.PeerCert}
	if fc.Role == 0 {
		ln, err := wire.ListenTLS(fc.Listen, files)
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		// The server-side TLS handshake is lazy; drive it now so an
		// authentication failure surfaces here, not as a protocol error.
		if hs, ok := c.(interface{ Handshake() error }); ok {
			if err := hs.Handshake(); err != nil {
				c.Close()
				return nil, fmt.Errorf("tls handshake: %w", err)
			}
		}
		return wire.NewNetConn(c, maxFrame), nil
	}
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		c, err := wire.DialTLS(fc.Peer, files)
		if err == nil {
			return wire.NewNetConn(c, maxFrame), nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("dialing %s: %w", fc.Peer, lastErr)
}

func runParty(configPath, outPath string) error {
	fc, err := loadConfig(configPath)
	if err != nil {
		return err
	}
	conn, err := connect(fc)
	if err != nil {
		return err
	}
	defer conn.Close()

	rep, err := party.Run(fc.sessionConfig(), conn)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}

// reservePort asks the kernel for a free localhost port and releases it for
// the child listener. The tiny reuse window is acceptable in a smoke run;
// the dial retry absorbs a slow child start.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func writeConfig(path string, fc fileConfig) error {
	b, err := json.MarshalIndent(fc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func runSmoke(benchPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "incshrink-wire-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cert0, key0, err := wire.GenerateCert(dir, "party0")
	if err != nil {
		return err
	}
	cert1, key1, err := wire.GenerateCert(dir, "party1")
	if err != nil {
		return err
	}
	addr, err := reservePort()
	if err != nil {
		return err
	}

	base := fileConfig{Seed: smokeSeed, Steps: smokeSteps}
	fc0, fc1 := base, base
	fc0.Role, fc0.Listen, fc0.Cert, fc0.Key, fc0.PeerCert = 0, addr, cert0, key0, cert1
	fc1.Role, fc1.Peer, fc1.Cert, fc1.Key, fc1.PeerCert = 1, addr, cert1, key1, cert0

	paths := [2]string{filepath.Join(dir, "party0.json"), filepath.Join(dir, "party1.json")}
	outs := [2]string{filepath.Join(dir, "report0.json"), filepath.Join(dir, "report1.json")}
	if err := writeConfig(paths[0], fc0); err != nil {
		return err
	}
	if err := writeConfig(paths[1], fc1); err != nil {
		return err
	}

	var procs [2]*exec.Cmd
	for i := range procs {
		procs[i] = exec.Command(exe, "-config", paths[i], "-out", outs[i])
		procs[i].Stderr = os.Stderr
		if err := procs[i].Start(); err != nil {
			return fmt.Errorf("starting party %d: %w", i, err)
		}
	}
	for i := range procs {
		if err := procs[i].Wait(); err != nil {
			return fmt.Errorf("party %d: %w", i, err)
		}
	}

	var measured [2]*party.Report
	for i := range measured {
		b, err := os.ReadFile(outs[i])
		if err != nil {
			return err
		}
		var rep party.Report
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("parsing report %d: %w", i, err)
		}
		measured[i] = &rep
	}

	// In-process loopback reference: the networked run must match it on
	// every observable.
	ref0, ref1, err := party.RunLoopbackPair(party.Config{Seed: smokeSeed, Steps: smokeSteps})
	if err != nil {
		return fmt.Errorf("loopback reference: %w", err)
	}
	for i, pair := range [2][2]*party.Report{{ref0, measured[0]}, {ref1, measured[1]}} {
		if ok, field := party.Equivalent(pair[0], pair[1]); !ok {
			return fmt.Errorf("role %d: TLS run diverges from loopback reference on %s", i, field)
		}
	}

	// Measured wire cost must equal the closed-form prediction: the conn
	// counts protocol frames, not TLS records, so any difference is a
	// schedule the cost model does not describe.
	check := func(name string, got, want uint64) error {
		if got != want {
			return fmt.Errorf("%s: measured %d vs predicted %d", name, got, want)
		}
		return nil
	}
	for i, rep := range measured {
		if err := check(fmt.Sprintf("role %d rounds", i), rep.WireRounds, rep.PredictedRounds); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("role %d bytes", i), rep.WireBytes, rep.PredictedBytes); err != nil {
			return err
		}
	}

	bench := map[string]any{
		"config": map[string]any{"steps": smokeSteps, "seed": smokeSeed},
		"wire": map[string]any{
			"measured_rounds":  measured[0].WireRounds,
			"measured_bytes":   measured[0].WireBytes,
			"predicted_rounds": measured[0].PredictedRounds,
			"predicted_bytes":  measured[0].PredictedBytes,
			"rounds_ratio":     ratio(measured[0].WireRounds, measured[0].PredictedRounds),
			"bytes_ratio":      ratio(measured[0].WireBytes, measured[0].PredictedBytes),
			"gmw_and_gates":    measured[0].GMWANDGates,
			"opened_values":    len(measured[0].Opened),
		},
	}
	b, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(benchPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wire smoke ok: 2 processes over %s, %d rounds, %d bytes per party (prediction exact); wrote %s\n",
		addr, measured[0].WireRounds, measured[0].WireBytes, benchPath)
	return nil
}

func ratio(got, want uint64) float64 {
	if want == 0 {
		return 0
	}
	return float64(got) / float64(want)
}
