package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestCSVEveryArtifact pins the -csv contract: `repro -exp all -csv
// DIR` writes one CSV per rendered paper artifact.
func TestCSVEveryArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper arm")
	}
	devNull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout := os.Stdout
	os.Stdout = devNull // the text charts are not under test
	csvDir = t.TempDir()
	defer func() { os.Stdout, csvDir = stdout, "" }()

	err = run("all", 1)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(csvDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, filepath.Base(f))
	}
	sort.Strings(got)
	want := []string{"fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv",
		"fig7.csv", "fig8.csv", "fig9.csv", "table1.csv", "table2.csv"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-exp all wrote %v, want one CSV per artifact %v", got, want)
	}
}
