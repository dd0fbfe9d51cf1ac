package service

import (
	"encoding/json"
	"math/big"
	"net/http"
	"runtime"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
)

// proveOnce submits the cubic circuit's witness and verifies the proof.
func proveOnce(t *testing.T, svc *Service, id string) {
	t.Helper()
	job, err := svc.Submit(id, []string{"35"}, []string{"3"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-job.Done()
	st := job.Snapshot()
	if job.State() != JobDone {
		t.Fatalf("job state %v: %s", st.State, st.Error)
	}
	info, err := svc.Circuit(id)
	if err != nil {
		t.Fatal(err)
	}
	vk, err := groth16.UnmarshalVerifyingKeyAuto(info.VerifyingKey)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.UnmarshalProofAuto(st.Proof)
	if err != nil {
		t.Fatal(err)
	}
	f := curve.Get(vk.CurveID).Fr
	if err := groth16.Verify(vk, proof, []ff.Element{f.FromBig(big.NewInt(35))}); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}

// TestKeyBundleShipsNoTables: an exported bundle carries the keys and the
// spec only, with no "fixed_base" field, and a replica that imports it
// builds its own δ assembly tables and proves proofs that verify. A raw
// bundle from an older node, which still carries the field, gets a 400.
func TestKeyBundleShipsNoTables(t *testing.T) {
	src := New(fastConfig())
	defer src.Close()
	info, err := src.Register(CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := src.ExportKeys(info.CircuitID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(kb)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["fixed_base"]; ok {
		t.Fatal("exported bundle carries fixed_base")
	}

	replica, srv := newTestServer(t, fastConfig())
	if _, err := replica.RegisterImported(*kb); err != nil {
		t.Fatalf("import: %v", err)
	}
	proveOnce(t, replica, info.CircuitID)

	fields["fixed_base"] = json.RawMessage(`"AAAA"`)
	resp, body := postJSON(t, srv.URL+"/v1/circuits/import", fields)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("import of a bundle with fixed_base: %d %s, want 400", resp.StatusCode, body)
	}
}

// TestImportRejectsShortKeysBeforeAllocating: a key whose length prefix
// promises more points than its bytes can hold is refused before the
// decoder allocates for the count. A 9-byte proving key claiming 2^20 A
// points gets a 400 from POST /v1/circuits/import, and neither it nor a
// verifying key claiming 2^20 IC points after valid α, β, γ, δ costs the
// decoders 1 MB.
func TestImportRejectsShortKeysBeforeAllocating(t *testing.T) {
	svc, srv := newTestServer(t, fastConfig())
	spec := CircuitSpec{Curve: "bn254", Source: cubicSrc}
	pk := []byte{byte(curve.BN254), 0, 0, 0, 4, 0, 0x10, 0, 0} // domain 4, |A| = 2^20, no points
	resp, body := postJSON(t, srv.URL+"/v1/circuits/import", KeyBundle{Spec: spec, ProvingKey: pk})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("import of a 9-byte proving key: %d %s, want 400", resp.StatusCode, body)
	}

	info, err := svc.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := curve.Get(curve.BN254)
	vk := append([]byte(nil), info.VerifyingKey[:5+c.G1.CompressedLen()+3*c.G2.CompressedLen()]...)
	copy(vk[1:5], []byte{0, 0x10, 0, 0}) // |IC| = 2^20, no IC points
	for _, dec := range []struct {
		what   string
		key    []byte
		decode func([]byte) error
	}{
		{"proving key", pk, new(groth16.ProvingKey).UnmarshalBinary},
		{"verifying key", vk, func(b []byte) error { _, err := groth16.UnmarshalVerifyingKeyAuto(b); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := dec.decode(dec.key)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated key accepted", dec.what)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: decoder allocated %d B for a key of %d B", dec.what, got, len(dec.key))
		}
	}
}
