package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/netserver"
	"repro/internal/page"
	"repro/internal/testdata"
)

// shape is one workload's data size and buffer pool.
type shape struct {
	depts, projs, members, equip int
	poolPages                    int
}

func (s shape) gen(seed int64) testdata.GenConfig {
	return testdata.GenConfig{
		Departments: s.depts, ProjsPerDept: s.projs, MembersPerProj: s.members,
		EquipPerDept: s.equip, Seed: seed,
	}
}

// openDB opens a durable database with the flush policy every workload
// shares: WAL on, one fsync per commit group, no group-commit dally,
// no background checkpointer.
func openDB(dir string, poolPages int) (*engine.DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return engine.Open(engine.Options{
		Dir:             dir,
		PoolPages:       poolPages,
		GroupCommitWait: 0,
		CheckpointEvery: 0,
	})
}

// loadDepartments creates DEPARTMENTS, loads the generated tuples,
// optionally builds the HIERARCHICAL index on DNO, and ends with a WAL
// checkpoint so the directory holds a settled image.
func loadDepartments(db *engine.DB, data *model.Table, versioned, indexDNO bool) error {
	if err := db.CreateTable("DEPARTMENTS", testdata.DepartmentsType(), engine.TableOptions{Versioned: versioned}); err != nil {
		return err
	}
	for _, tup := range data.Tuples {
		if err := db.Insert("DEPARTMENTS", tup); err != nil {
			return fmt.Errorf("load DEPARTMENTS: %w", err)
		}
	}
	if indexDNO {
		if err := db.CreateIndex("DEPT_DNO", "DEPARTMENTS", []string{"DNO"}, "HIERARCHICAL"); err != nil {
			return err
		}
	}
	return db.WALCheckpoint()
}

// spaceAmp is the bytes in dir over the logical bytes of data.
func spaceAmp(dir string, data *model.Table) (float64, error) {
	var onDisk int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		onDisk += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(onDisk) / float64(logicalBytes(data)), nil
}

// segmentPages is the page count of the segment files in dir (the
// table data and catalog, without the WAL).
func segmentPages(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var n int64
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), "wal") {
			continue
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n / page.Size
}

// logicalBytes is the size of a table's user data: 8 bytes per number
// or time, the length of each string, one byte per boolean.
func logicalBytes(t *model.Table) int64 {
	var n int64
	for _, tup := range t.Tuples {
		for _, v := range tup {
			switch x := v.(type) {
			case *model.Table:
				n += logicalBytes(x)
			case model.Str:
				n += int64(len(x))
			case model.Bool:
				n++
			default:
				n += 8
			}
		}
	}
	return n
}

// server starts a loopback netserver over db. Admission limits sit far
// above the benchmark's two clients, so nothing queues or sheds unless
// the server misbehaves.
func startServer(db *engine.DB) (*netserver.Server, error) {
	srv := netserver.New(db, netserver.Options{MaxSessions: 16, MaxStatements: 8})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

func stopServer(srv *netserver.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// deptKeys lists the DNO of every generated department.
func deptKeys(data *model.Table) []int64 {
	keys := make([]int64, len(data.Tuples))
	for i, t := range data.Tuples {
		keys[i] = int64(t[0].(model.Int))
	}
	return keys
}
