package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	cpr "repro"
	"repro/internal/inlog"
	"repro/internal/node"
)

// inlogCmd is the offline ingestion-log inspector:
//
//	fasterctl inlog -dir /tmp/db
//	fasterctl inlog -segments /tmp/db/inlog -checkpoints /tmp/db/checkpoints
//
// It lists every segment with its offset range, re-verifies each record's
// CRC framing, and cross-references the commit watermarks so the apply and
// trim frontiers are visible next to the physical layout. It never opens
// the log for writing, so it is safe against a live directory. Exit code 1
// on any corruption.
func inlogCmd(args []string) int {
	fs := flag.NewFlagSet("inlog", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory (segments under <dir>/inlog, checkpoints under <dir>/checkpoints)")
	segDir := fs.String("segments", "", "segment directory (overrides -dir)")
	ckDir := fs.String("checkpoints", "", "checkpoint directory for watermarks (overrides -dir; optional)")
	fs.Parse(args) //nolint:errcheck
	if *segDir == "" && *dir != "" {
		*segDir = node.InlogDir(*dir)
	}
	if *ckDir == "" && *dir != "" {
		*ckDir = node.CheckpointDir(*dir)
	}
	if *segDir == "" {
		fmt.Fprintln(os.Stderr, "usage: fasterctl inlog [-dir <db-dir>] [-segments <seg-dir>] [-checkpoints <ck-dir>]")
		return 2
	}

	segs, err := inlog.NewDirSegmentStore(*segDir)
	if err != nil {
		log.Print(err)
		return 1
	}
	rep, err := inlog.Inspect(segs)
	if err != nil {
		log.Print(err)
		return 1
	}

	fmt.Printf("%s: %d segment(s), offsets [%d, %d)\n", *segDir, len(rep.Segments), rep.Start, rep.End)
	for _, s := range rep.Segments {
		status := "ok"
		if s.Torn {
			status = fmt.Sprintf("torn tail (%d of %d bytes valid)", s.ValidBytes, s.Bytes)
		}
		fmt.Printf("  segment %016x: offsets [%d, %d)  %d records  %d bytes  %s\n",
			s.Base, s.Base, s.End, s.Records, s.Bytes, status)
	}
	for _, e := range rep.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}

	// Watermarks: one per commit that covered the pump session. The newest
	// readable one is the apply anchor; its offset is the trim frontier any
	// retained segment below which is reclaimable. It is also independent
	// evidence against the log: a committed offset the log no longer
	// reaches means a "torn tail" is really lost data, not a benign
	// crash-truncated final record.
	corrupt := rep.Corrupt
	if *ckDir != "" {
		if st, err := os.Stat(*ckDir); err == nil && st.IsDir() {
			cs, err := cpr.NewDirCheckpointStore(*ckDir)
			if err != nil {
				log.Print(err)
				return 1
			}
			ws, err := inlog.ListWatermarks(cs)
			if err != nil {
				log.Print(err)
				return 1
			}
			if len(ws) == 0 {
				fmt.Println("watermarks: none (no commit has covered the pump session)")
			}
			// An autocommitting server leaves one watermark per commit; only
			// the newest few matter for operators.
			if skip := len(ws) - 5; skip > 0 {
				fmt.Printf("  (%d older watermark(s) elided)\n", skip)
				ws = ws[skip:]
			}
			for i, w := range ws {
				marker := " "
				if i == len(ws)-1 {
					marker = "*" // newest: the live apply/trim anchor
				}
				fmt.Printf("%s watermark %s: session %q serial %d -> offset %d\n",
					marker, w.Token, w.Session, w.Serial, w.Offset)
				if i == len(ws)-1 {
					if w.Offset > rep.End {
						corrupt = true
						fmt.Printf("  ERROR commit %s covers offset %d but the log ends at %d: committed records are missing\n",
							w.Token, w.Offset, rep.End)
					} else if w.Offset > rep.Start {
						fmt.Printf("  note: offsets [%d, %d) are committed but not yet trimmed\n", rep.Start, w.Offset)
					}
				}
			}
		}
	}

	if corrupt {
		fmt.Println("CORRUPT: the log cannot be fully replayed")
		return 1
	}
	fmt.Printf("all %d record(s) verify ✔\n", rep.End-rep.Start)
	return 0
}
