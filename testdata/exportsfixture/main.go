// Command exportsfixture is the fixture TestExportsScanResolvesByType
// scans. Its calls of methods named Size and String are os.FileInfo's
// and strings.Builder's, so a scan by name finds every lib export used.
package main

import (
	"fmt"
	"os"
	"strings"

	"exportsfixture/internal/lib"
)

func main() {
	fi, err := os.Stat(".")
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	fmt.Fprint(&b, lib.Open())
	fmt.Println(fi.Size(), b.String())
}
