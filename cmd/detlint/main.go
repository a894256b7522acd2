// Command detlint runs the detlint analyzer suite (internal/lint): the
// determinism, payload-aliasing, unsafe-confinement and error-taxonomy
// checks that guard this repo's CONGEST engines.
//
// It has one driver, cmd/go's vet-tool protocol:
//
//	go vet -vettool=$(which detlint) ./...
//
// cmd/go invokes the binary three ways — `-V=full` for a cache key,
// `-flags` for the flag manifest, and once per compilation unit with a
// JSON config file argument — the same contract implemented by x/tools'
// unitchecker, re-implemented here on the standard library so the tool
// builds offline. Diagnostics go to stderr as file:line:col lines; exit
// status is 2 when findings exist, 1 on driver failure or any other
// invocation (which prints the usage line), 0 when clean.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"congestds/internal/lint"
	"congestds/internal/lint/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("detlint: ")

	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V="):
		printVersion(args[0])
	case len(args) == 1 && args[0] == "-flags":
		// No tool-specific flags; cmd/go expects a JSON manifest.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(vetUnit(args[0]))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which detlint) ./...")
		os.Exit(1)
	}
}

// printVersion implements `detlint -V=full`: cmd/go hashes this line into
// its build cache key, so it must change whenever the binary changes —
// hence the content digest of the executable itself.
func printVersion(arg string) {
	name := filepath.Base(os.Args[0])
	if arg != "-V=full" {
		fmt.Printf("%s version devel\n", name)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", name, string(h.Sum(nil)))
}

// vetConfig is the per-compilation-unit JSON file cmd/go hands a vettool.
// Field names are fixed by cmd/go/internal/work; unknown fields are
// ignored so the schema may grow.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes one compilation unit described by cfgFile and returns
// the process exit code.
func vetUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Print(err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Printf("%s: %v", cfgFile, err)
		return 1
	}

	// detlint exports no facts, but cmd/go requires the vetx output file
	// to exist for the unit to be considered analyzed (and cached).
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				log.Print(err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	unit, err := typecheckUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		log.Print(err)
		return 1
	}

	diags, err := lint.Run(unit, lint.Suite())
	if err != nil {
		log.Print(err)
		return 1
	}
	writeVetx()
	printDiags(unit.Fset, diags)
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// typecheckUnit parses and type-checks the unit's GoFiles against the
// export data cmd/go supplied. Test files participate in type checking
// (the in-package test variant does not compile without them) but are
// excluded from analysis: the determinism contracts bind the shipped
// packages, and tests legitimately use wall-clock timeouts and maps.
func typecheckUnit(cfg *vetConfig) (*lint.Unit, error) {
	fset := token.NewFileSet()
	var all, analyzed []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		all = append(all, f)
		if !strings.HasSuffix(name, "_test.go") {
			analyzed = append(analyzed, f)
		}
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// The lookup receives resolved package paths (cmd/go applies
		// ImportMap before writing PackageFile), but be liberal.
		file, ok := cfg.PackageFile[path]
		if !ok {
			if mapped, mok := cfg.ImportMap[path]; mok {
				file, ok = cfg.PackageFile[mapped]
			}
		}
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tconf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
			return compilerImporter.Import(path)
		}),
	}
	var typeErr error
	tconf.Error = func(err error) {
		if typeErr == nil {
			typeErr = err
		}
	}
	info := analysis.NewTypesInfo()
	pkg, _ := tconf.Check(cfg.ImportPath, fset, all, info)
	if typeErr != nil {
		return nil, fmt.Errorf("%s: %v", cfg.ImportPath, typeErr)
	}
	return &lint.Unit{Fset: fset, Files: analyzed, Pkg: pkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Category)
	}
}
