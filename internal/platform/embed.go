package platform

import (
	"embed"
	"fmt"
	"strings"
	"sync"
)

// The built-in device presets are themselves declarative spec files,
// embedded at build time and compiled through exactly the same
// ParseSpecFile → Compile path user-supplied platforms take. The frozen
// Go constructors they replaced live on in internal/platform/frozen,
// and the differential tests pin the two bitwise-equal, so the spec
// layer can never drift from the presets the paper's figures were
// reproduced with.

//go:embed specs/*.json
var builtinSpecFS embed.FS

var (
	builtinOnce  sync.Once
	builtinSpecs map[string]SpecFile
	builtinErr   error
)

// loadBuiltinSpecs parses every embedded spec exactly once.
func loadBuiltinSpecs() (map[string]SpecFile, error) {
	builtinOnce.Do(func() {
		entries, err := builtinSpecFS.ReadDir("specs")
		if err != nil {
			builtinErr = fmt.Errorf("platform: embedded specs: %w", err)
			return
		}
		specs := make(map[string]SpecFile, len(entries))
		for _, e := range entries {
			data, err := builtinSpecFS.ReadFile("specs/" + e.Name())
			if err != nil {
				builtinErr = fmt.Errorf("platform: embedded spec %s: %w", e.Name(), err)
				return
			}
			f, err := ParseSpecFile(data)
			if err != nil {
				builtinErr = fmt.Errorf("platform: embedded spec %s: %w", e.Name(), err)
				return
			}
			if want := strings.TrimSuffix(e.Name(), ".json"); f.Name != want {
				builtinErr = fmt.Errorf("platform: embedded spec %s declares name %q", e.Name(), f.Name)
				return
			}
			specs[f.Name] = f
		}
		builtinSpecs = specs
	})
	return builtinSpecs, builtinErr
}

// BuiltinSpec returns the embedded spec file of a built-in platform
// ("nexus6p", "odroid-xu3"); ok is false for unknown names. The result
// is a copy: mutating it cannot affect the presets.
func BuiltinSpec(name string) (SpecFile, bool) {
	specs, err := loadBuiltinSpecs()
	if err != nil {
		return SpecFile{}, false
	}
	f, ok := specs[name]
	if !ok {
		return SpecFile{}, false
	}
	return f.Clone(), true
}

// mustCompileBuiltin compiles an embedded preset, panicking on any
// error: a broken embedded spec is a build defect, caught by the test
// suite, never a runtime condition.
func mustCompileBuiltin(name string, seed int64) *Platform {
	f, ok := BuiltinSpec(name)
	if !ok {
		if _, err := loadBuiltinSpecs(); err != nil {
			panic(err)
		}
		panic(fmt.Sprintf("platform: no embedded spec %q", name))
	}
	p, err := f.Compile(seed)
	if err != nil {
		panic(err)
	}
	return p
}
