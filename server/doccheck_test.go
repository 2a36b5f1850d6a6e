package server_test

import (
	"testing"

	"repro/internal/doccheck"
)

// TestExportedSymbolsDocumented holds the package to the godoc bar:
// every exported symbol carries a doc comment.
func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".") }
