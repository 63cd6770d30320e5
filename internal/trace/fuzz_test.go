package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the native CSV ingester. It must
// never panic; every error carries the package prefix, and every trace
// it accepts validates and survives a WriteCSV/ReadCSV round trip with
// the same VMs, classes and sample count. The seeds are the committed
// corpus under testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("ReadCSV error %q lacks the package prefix", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading the written trace: %v", err)
		}
		if len(back.VMs) != len(tr.VMs) || back.Samples() != tr.Samples() {
			t.Fatalf("round trip changed the shape: %d VMs x %d samples, want %d x %d",
				len(back.VMs), back.Samples(), len(tr.VMs), tr.Samples())
		}
		for i, vm := range tr.VMs {
			if back.VMs[i].ID != vm.ID || back.VMs[i].Class != vm.Class {
				t.Fatalf("round trip changed VM %d: %d/%v, want %d/%v",
					i, back.VMs[i].ID, back.VMs[i].Class, vm.ID, vm.Class)
			}
		}
	})
}

// FuzzReadClusterCSV feeds arbitrary bytes to the cluster-dump
// adapter. It must never panic; every error carries the adapter's
// prefix, and every trace it accepts validates, numbers its VMs
// densely from 0 and comes out identical when the same bytes are read
// again (no map-order dependence). The seeds are the committed corpus
// under testdata/fuzz/FuzzReadClusterCSV.
func FuzzReadClusterCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadClusterCSV(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: cluster: ") {
				t.Fatalf("ReadClusterCSV error %q lacks the adapter prefix", err)
			}
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadClusterCSV accepted an invalid trace: %v", err)
		}
		for i, vm := range tr.VMs {
			if vm.ID != i {
				t.Fatalf("VM %d has id %d, want dense ids", i, vm.ID)
			}
		}
		again, err := ReadClusterCSV(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(again, tr) {
			t.Fatalf("reading the same bytes twice differs (err %v)", err)
		}
	})
}

// FuzzParseSourceSpec feeds arbitrary spec strings to the backend
// parser. It must never panic; every spec it accepts round-trips
// through Spec, and SourceWithContent accepts exactly the file-backed
// specs — whose shipped form keeps the spec and fingerprints without
// touching the filesystem. The seeds are the committed corpus under
// testdata/fuzz/FuzzParseSourceSpec.
func FuzzParseSourceSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		src, err := ParseSourceSpec(spec)
		shipped, cerr := SourceWithContent(spec, []byte("content"))
		if err != nil {
			if cerr == nil {
				t.Fatalf("SourceWithContent accepted %q, which ParseSourceSpec rejects (%v)", spec, err)
			}
			return
		}
		back, err := ParseSourceSpec(src.Spec())
		if err != nil || !reflect.DeepEqual(back, src) {
			t.Fatalf("ParseSourceSpec(%q).Spec() = %q parses back to %#v, %v; want %#v",
				spec, src.Spec(), back, err, src)
		}
		if src.IsFile() != (cerr == nil) {
			t.Fatalf("SourceWithContent(%q) error = %v for a %s source", spec, cerr, src.Format)
		}
		if !src.IsFile() {
			return
		}
		if shipped.Spec() != src.Spec() {
			t.Fatalf("shipped spec %q, want %q", shipped.Spec(), src.Spec())
		}
		if fp, err := shipped.Fingerprint(); err != nil || !strings.HasPrefix(fp, src.Spec()+":") {
			t.Fatalf("shipped fingerprint = %q, %v; want the prefix %q", fp, err, src.Spec()+":")
		}
	})
}
