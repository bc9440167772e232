// Package models is the paper's case study (§V) as model files: four
// MDLs (Figs. 7 and 11, HTTP, mDNS), eight colored automata named by
// model name and role (Figs. 1, 2, 3 and 9) and the six merged automata
// of every directed pair of SLP, UPnP and Bonjour (Figs. 4 and 10 and
// Fig. 12(b)). They are data, not code: registry.LoadFS reads them.
package models

import "embed"

// FS holds every shipped model document, one *.xml file each.
//
//go:embed *.xml
var FS embed.FS
