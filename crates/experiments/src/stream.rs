//! Streaming JSONL output with checkpoint/resume for long experiment sweeps.
//!
//! The report JSON under `target/experiments/<id>.json` is written once, at
//! the end of a run — useless when a sweep dies (or is watched) halfway. A
//! [`StreamingTable`] therefore mirrors every table row, *as it is
//! produced*, into `target/experiments/<id>.jsonl` (one self-describing
//! JSON record per sweep point, flushed per row) **and reads that stream
//! back on startup**: a run opened with `--resume` skips every sweep point
//! the previous run already recorded and recomputes only what is missing,
//! producing final CSV/JSON byte-identical to an uninterrupted run.
//! Streaming is best-effort — an unwritable target directory degrades to a
//! plain in-memory table with a warning, and never fails an experiment.
//!
//! # Stream layout
//!
//! A stream is a sequence of JSON lines in three shapes, in order:
//!
//! 1. one [`StreamHeader`] — the experiment id, the stream schema version,
//!    and the run's **config fingerprint** (see below);
//! 2. zero or more [`StreamRecord`]s — one per table row, with contiguous
//!    `seq` numbers and non-decreasing `point` indices;
//! 3. at most one [`StreamEnd`] footer — written when the run finishes,
//!    recording the row and sweep-point counts, so a later `--resume` knows
//!    every begun point (even a row-less tail) is complete.
//!
//! The three shapes share no required fields, so each line deserializes as
//! exactly one of them.
//!
//! # Record schema, field by field
//!
//! A [`StreamRecord`] carries:
//!
//! * `experiment` — the experiment id (`"E8"`); every line repeats it so a
//!   single grepped line is attributable;
//! * `seq` — 0-based row index within the run; contiguous, so a gap or
//!   repeat marks a corrupt stream;
//! * `point` — 0-based index of the *sweep point* that produced the row.
//!   A point is one unit of resumable work (one walk, one priced instance,
//!   one harvest parameter) and may emit zero, one, or several rows; the
//!   `point` values of consecutive rows never decrease;
//! * `columns` — the column headers, repeated per record so a truncated
//!   file still parses row by row;
//! * `cells` — the display cells, parallel to `columns` (exactly what the
//!   final CSV contains);
//! * `raw` — full-precision replay state (stringified, `f64`/`u64`
//!   round-trip exact) that the experiment needs to rebuild its verdict
//!   aggregates without recomputing the point. Not shown in tables.
//!
//! ```
//! use bbc_experiments::StreamRecord;
//!
//! let line = r#"{"experiment":"E8","seq":3,"point":2,"columns":["n","ratio"],"cells":["10","0.320"],"raw":["true"]}"#;
//! let record: StreamRecord = serde_json::from_str(line).unwrap();
//! assert_eq!(record.experiment, "E8");
//! assert_eq!(record.seq, 3);
//! assert_eq!(record.point, 2);
//! assert_eq!(record.cells.len(), record.columns.len());
//! assert!(record.raw_bool(0));
//! ```
//!
//! # Fingerprint semantics
//!
//! A [`Fingerprint`] canonicalizes everything that makes recorded points
//! reusable: the experiment id, the stream schema version, and every
//! code-relevant run parameter (game family, sweep grid, scheduler, seeds,
//! step budgets, the `--full` flag). [`StreamingTable::open`] compares the
//! stored header fingerprint against the current run's **by string
//! equality**: any mismatch — different grid, different mode, different
//! schema — discards the stream and starts fresh. Parameters that provably
//! cannot change results (worker thread counts — every parallel entry point
//! is byte-identical across thread counts) stay out of the fingerprint.
//!
//! # Resume contract
//!
//! On `--resume`, [`StreamingTable::open`] scans the existing stream:
//!
//! * a missing file, unreadable/mismatched header, or mismatched
//!   fingerprint ⇒ fresh start (the stream is truncated);
//! * records are validated (id, columns, `seq` contiguity, `point`
//!   monotonicity, cell arity); the first malformed or truncated line —
//!   typically a partial write from a killed run — **and everything after
//!   it** is dropped;
//! * without a [`StreamEnd`] footer the highest recorded point may be
//!   mid-write, so it is dropped too and recomputed; with a valid footer
//!   every recorded point is complete;
//! * the file is truncated to the last surviving record and re-opened in
//!   append mode, so a resumed run reproduces the uninterrupted file
//!   byte for byte.
//!
//! A row write that fails partway (a full disk, an I/O error) is cut back
//! to the stream's last complete line, and streaming stops with a warning;
//! the stream then resumes like one from a killed run. Appending, cutting
//! back and finding the torn tail live in [`crate::line_log`], which the
//! `bbc-serve` journal shares.
//!
//! Experiments then call [`StreamingTable::begin_point`] once per sweep
//! point, in the same deterministic order as every run: `Some(rows)` means
//! the point was already recorded — append nothing, rebuild aggregates from
//! the returned rows' `raw` state; `None` means compute the point and emit
//! its rows via [`StreamingTable::row`] / [`StreamingTable::row_raw`].

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};

use bbc_analysis::Table;
use serde::{Deserialize, Serialize};

use crate::line_log::{complete_lines, LineLog};

/// Version of the stream layout. Bumped whenever the line shapes change, so
/// old streams fingerprint-mismatch instead of half-parsing.
pub const STREAM_SCHEMA: u32 = 2;

/// Everything that decides whether previously recorded sweep points are
/// reusable: experiment id, schema version, and the code-relevant run
/// parameters (see the module docs for what belongs in here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    experiment: String,
    params: Vec<(String, String)>,
}

impl Fingerprint {
    /// Starts a fingerprint for the given experiment id.
    pub fn new(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            params: Vec::new(),
        }
    }

    /// Appends one named parameter (grids and seed ranges format naturally
    /// through `Debug`/`Display`).
    #[must_use]
    pub fn param(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// The canonical one-line rendering stored in the stream header and
    /// compared (by equality) on resume.
    pub fn canonical(&self) -> String {
        let mut out = format!("{} schema={STREAM_SCHEMA}", self.experiment);
        for (k, v) in &self.params {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }
}

/// First line of every stream: identifies the run configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamHeader {
    /// Experiment id, e.g. `"E8"`.
    pub experiment: String,
    /// Stream layout version ([`STREAM_SCHEMA`]).
    pub schema: u32,
    /// Canonical run-config fingerprint ([`Fingerprint::canonical`]).
    pub fingerprint: String,
}

/// One streamed sweep-point row (see the module docs for the field-by-field
/// schema).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamRecord {
    /// Experiment id, e.g. `"E8"`.
    pub experiment: String,
    /// 0-based index of this row within the run (contiguous).
    pub seq: u64,
    /// 0-based index of the sweep point that produced this row
    /// (non-decreasing across rows; a point may emit any number of rows).
    pub point: u64,
    /// Column headers, repeated per record.
    pub columns: Vec<String>,
    /// Display cells, parallel to `columns`.
    pub cells: Vec<String>,
    /// Full-precision replay state for verdict aggregates (stringified).
    pub raw: Vec<String>,
}

impl StreamRecord {
    /// Parses `raw[i]` as `f64` (written via `f64::to_string`, which is
    /// shortest-round-trip exact).
    ///
    /// # Panics
    ///
    /// Panics when the field is missing or unparseable — the stream passed
    /// shape validation but its replay state was tampered with; rerun with
    /// `--fresh`.
    pub fn raw_f64(&self, i: usize) -> f64 {
        self.raw_parse(i)
    }

    /// Parses `raw[i]` as `u64`.
    ///
    /// # Panics
    ///
    /// As [`StreamRecord::raw_f64`].
    pub fn raw_u64(&self, i: usize) -> u64 {
        self.raw_parse(i)
    }

    /// Parses `raw[i]` as `bool`.
    ///
    /// # Panics
    ///
    /// As [`StreamRecord::raw_f64`].
    pub fn raw_bool(&self, i: usize) -> bool {
        self.raw_parse(i)
    }

    /// Returns `raw[i]` as a string slice.
    ///
    /// # Panics
    ///
    /// As [`StreamRecord::raw_f64`].
    pub fn raw_str(&self, i: usize) -> &str {
        self.raw.get(i).map_or_else(
            // bbc-lint: allow(panic, documented # Panics contract: a corrupt resume stream is unrecoverable by design)
            || panic!("{}", Self::raw_corrupt(&self.experiment, self.seq, i)),
            String::as_str,
        )
    }

    fn raw_parse<T: std::str::FromStr>(&self, i: usize) -> T {
        self.raw
            .get(i)
            .and_then(|s| s.parse().ok())
            // bbc-lint: allow(panic, documented # Panics contract: a corrupt resume stream is unrecoverable by design)
            .unwrap_or_else(|| panic!("{}", Self::raw_corrupt(&self.experiment, self.seq, i)))
    }

    fn raw_corrupt(experiment: &str, seq: u64, i: usize) -> String {
        format!(
            "corrupt replay state in {experiment} stream (record {seq}, raw field {i}); \
             rerun with --fresh"
        )
    }
}

/// Footer marking a finished run: every recorded point is complete.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamEnd {
    /// Experiment id, e.g. `"E8"`.
    pub experiment: String,
    /// Always `true` (the field's presence is what tags the line shape).
    pub complete: bool,
    /// Number of records the finished run wrote (cross-checked on resume).
    pub rows: u64,
    /// Number of sweep points the finished run began — including trailing
    /// points that emitted zero rows, so a resumed finished run replays
    /// *every* point instead of recomputing a row-less tail.
    pub points: u64,
}

/// Default stream path: `<id>.jsonl` in the same directory as the report
/// JSON ([`bbc_analysis::report::experiments_dir`] — one shared resolver,
/// so stream and report can never land in different places).
pub fn stream_path(id: &str) -> PathBuf {
    bbc_analysis::report::experiments_dir().join(format!("{id}.jsonl"))
}

/// A [`Table`] that appends each row to the experiment's `.jsonl` stream
/// the moment the row exists, and can resume a previous run's stream by
/// replaying its recorded sweep points (see the module docs).
#[derive(Debug)]
pub struct StreamingTable {
    id: String,
    columns: Vec<String>,
    fingerprint: String,
    table: Table,
    seq: u64,
    /// Index the next [`StreamingTable::begin_point`] call will claim.
    next_point: u64,
    /// Points `[0, complete_points)` are fully recorded and replayable.
    complete_points: u64,
    /// The resumed stream's footer point count, when one was accepted. A
    /// finished run of the same fingerprint must begin exactly this many
    /// points, so finishing with fewer proves the footer was tampered with
    /// (an inflated count would otherwise silently skip real work).
    footer_points: Option<u64>,
    /// Validated records of the complete points, in stream order.
    replay: VecDeque<StreamRecord>,
    replayed_rows: u64,
    path: PathBuf,
    sink: Option<LineLog>,
}

impl StreamingTable {
    /// Opens the default stream for `id`: resuming the recorded points when
    /// `resume` is set and the existing stream's fingerprint matches,
    /// starting fresh otherwise.
    pub fn open(id: &str, columns: &[&str], fingerprint: &Fingerprint, resume: bool) -> Self {
        Self::open_at(stream_path(id), id, columns, fingerprint, resume)
    }

    /// [`StreamingTable::open`] against an explicit path (tests and
    /// tooling).
    pub fn open_at(
        path: PathBuf,
        id: &str,
        columns: &[&str],
        fingerprint: &Fingerprint,
        resume: bool,
    ) -> Self {
        let mut out = Self {
            id: id.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            fingerprint: fingerprint.canonical(),
            table: Table::new(columns),
            seq: 0,
            next_point: 0,
            complete_points: 0,
            footer_points: None,
            replay: VecDeque::new(),
            replayed_rows: 0,
            path,
            sink: None,
        };
        if resume {
            match out.try_resume() {
                Ok(()) => return out,
                Err(reason) => {
                    eprintln!("note: {id} starts fresh (cannot resume {reason})");
                }
            }
        }
        out.create_fresh();
        out
    }

    /// The canonical fingerprint this stream was opened with.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Starts the next sweep point. `Some(rows)` means the point is fully
    /// recorded in the resumed stream: its rows (possibly zero) were
    /// appended to the in-memory table and the caller must rebuild its
    /// aggregates from them instead of recomputing. `None` means compute
    /// the point and emit its rows via [`StreamingTable::row`] /
    /// [`StreamingTable::row_raw`].
    pub fn begin_point(&mut self) -> Option<Vec<StreamRecord>> {
        let point = self.next_point;
        self.next_point += 1;
        if point >= self.complete_points {
            return None;
        }
        let mut rows = Vec::new();
        while self.replay.front().is_some_and(|r| r.point == point) {
            // bbc-lint: allow(panic, the loop guard just proved the front record exists)
            let record = self.replay.pop_front().expect("front exists");
            self.table.row(&record.cells);
            self.seq += 1;
            self.replayed_rows += 1;
            rows.push(record);
        }
        Some(rows)
    }

    /// Appends a row (no replay state) to the current sweep point.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width (same contract
    /// as [`Table::row`]).
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        self.row_raw(cells, &[] as &[&str]);
    }

    /// Appends a row plus its full-precision replay state to the current
    /// sweep point and flushes both to the JSONL stream.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width (same contract
    /// as [`Table::row`]).
    pub fn row_raw<S: AsRef<str>, R: AsRef<str>>(&mut self, cells: &[S], raw: &[R]) {
        self.table.row(cells);
        let record = StreamRecord {
            experiment: self.id.clone(),
            seq: self.seq,
            point: self.next_point.saturating_sub(1),
            columns: self.columns.clone(),
            cells: cells.iter().map(|c| c.as_ref().to_string()).collect(),
            raw: raw.iter().map(|r| r.as_ref().to_string()).collect(),
        };
        self.seq += 1;
        // bbc-lint: allow(panic, stream records are plain data structs; serialization cannot fail)
        let line = serde_json::to_string(&record).expect("stream record serializes");
        self.write_line(line);
    }

    /// Where this table streams to (whether or not the sink is alive).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of rows accumulated so far (replayed plus computed).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Rows served from the resumed stream instead of being recomputed.
    pub fn replayed_rows(&self) -> u64 {
        self.replayed_rows
    }

    /// Finishes the stream — writes the completion footer so a later
    /// `--resume` can replay every point — and returns the accumulated
    /// in-memory table.
    ///
    /// # Panics
    ///
    /// Panics when a resumed footer claimed more sweep points than this run
    /// begun: a same-fingerprint run is deterministic, so an inflated count
    /// proves the footer was tampered with, and the inflated points already
    /// "replayed" as silently empty — the artifacts must not be persisted.
    pub fn into_table(mut self) -> Table {
        if let Some(footer_points) = self.footer_points {
            assert!(
                footer_points <= self.next_point,
                "corrupt {} stream footer: claims {footer_points} sweep points, \
                 this run begun {}; rerun with --fresh",
                self.id,
                self.next_point
            );
        }
        let end = StreamEnd {
            experiment: self.id.clone(),
            complete: true,
            rows: self.seq,
            points: self.next_point,
        };
        // bbc-lint: allow(panic, the stream footer is a plain data struct; serialization cannot fail)
        let line = serde_json::to_string(&end).expect("stream footer serializes");
        self.write_line(line);
        self.table
    }

    /// Appends one line; a failed write is cut back and stops the stream.
    fn write_line(&mut self, mut line: String) {
        if let Some(log) = &mut self.sink {
            line.push('\n');
            if let Err(e) = log.append(&line) {
                eprintln!(
                    "warning: stopping {} row stream to {}: {e}",
                    self.id,
                    self.path.display()
                );
                self.sink = None;
            }
        }
    }

    /// Truncates and re-creates the stream with a fresh header.
    fn create_fresh(&mut self) {
        let header = StreamHeader {
            experiment: self.id.clone(),
            schema: STREAM_SCHEMA,
            fingerprint: self.fingerprint.clone(),
        };
        // bbc-lint: allow(panic, the stream header is a plain data struct; serialization cannot fail)
        let line = serde_json::to_string(&header).expect("stream header serializes") + "\n";
        let sink = self
            .path
            .parent()
            .map_or(Ok(()), fs::create_dir_all)
            .and_then(|()| LineLog::create(&self.path, &line));
        self.sink = match sink {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!(
                    "warning: cannot stream {} rows to {}: {e}",
                    self.id,
                    self.path.display()
                );
                None
            }
        };
    }

    /// Attempts to resume from the existing stream; on success the file is
    /// truncated to the surviving records and re-opened for appending.
    fn try_resume(&mut self) -> Result<(), String> {
        let scan = scan_stream(&self.path, &self.id, &self.columns, &self.fingerprint)?;
        let log = LineLog::reopen(&self.path, scan.keep_bytes)
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        println!(
            "{}: resuming stream at {} ({} rows / {} complete points replayable)",
            self.id,
            self.path.display(),
            scan.records.len(),
            scan.complete_points,
        );
        self.complete_points = scan.complete_points;
        self.footer_points = scan.footer_points;
        self.replay = scan.records.into();
        self.sink = Some(log);
        Ok(())
    }
}

/// Outcome of validating an existing stream for resumption.
struct StreamScan {
    /// Surviving records (every row of every complete point).
    records: Vec<StreamRecord>,
    /// Points `[0, complete_points)` are complete.
    complete_points: u64,
    /// The accepted footer's point count, if the stream was finished.
    footer_points: Option<u64>,
    /// Byte length of the surviving prefix (header + kept records).
    keep_bytes: u64,
}

/// Validates the stream at `path` against the expected identity; returns
/// the replayable prefix or the (human-readable) reason none exists.
fn scan_stream(
    path: &Path,
    id: &str,
    columns: &[String],
    fingerprint: &str,
) -> Result<StreamScan, String> {
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::str::from_utf8(&bytes).map_err(|_| format!("{}: not UTF-8", path.display()))?;

    // A trailing line without its newline is a partial write: never seen.
    let mut lines = complete_lines(text);
    let (header_line, header_end) = lines
        .next()
        .ok_or_else(|| format!("{id} stream: no complete header"))?;
    let header: StreamHeader =
        serde_json::from_str(header_line).map_err(|e| format!("{id} stream header: {e}"))?;
    if header.experiment != id || header.schema != STREAM_SCHEMA {
        return Err(format!(
            "{id} stream: header identifies {}/schema {}",
            header.experiment, header.schema
        ));
    }
    if header.fingerprint != fingerprint {
        return Err(format!(
            "{id} stream: fingerprint changed\n  recorded: {}\n  current:  {fingerprint}",
            header.fingerprint
        ));
    }

    // Each kept record with the byte offset just past its line.
    let mut records: Vec<(StreamRecord, u64)> = Vec::new();
    let mut finished_points = None;
    for (line, end) in lines {
        if let Ok(record) = serde_json::from_str::<StreamRecord>(line) {
            let valid = record.experiment == id
                && record.seq == records.len() as u64
                && record.columns == columns
                && record.cells.len() == columns.len()
                && records
                    .last()
                    .is_none_or(|(prev, _)| record.point >= prev.point);
            if !valid {
                break;
            }
            records.push((record, end));
        } else if let Ok(footer) = serde_json::from_str::<StreamEnd>(line) {
            // Footer: valid only as the very last line of a finished run,
            // consistent with every record before it. It is NOT kept — the
            // resumed run rewrites it on finish.
            let consistent = footer.experiment == id
                && footer.complete
                && footer.rows == records.len() as u64
                && records.last().map_or(0, |(r, _)| r.point + 1) <= footer.points;
            if consistent {
                finished_points = Some(footer.points);
            }
            break;
        } else {
            break;
        }
    }

    // With a footer every begun point — including a row-less tail — is
    // complete and replayable. Without one, the highest recorded point may
    // be mid-write: drop it (and recompute).
    let complete_points = match finished_points {
        Some(points) => points,
        None => match records.last() {
            None => 0,
            Some((last, _)) => {
                let tail_point = last.point;
                while records.last().is_some_and(|(r, _)| r.point == tail_point) {
                    records.pop();
                }
                records.last().map_or(0, |(r, _)| r.point + 1)
            }
        },
    };
    Ok(StreamScan {
        keep_bytes: records.last().map_or(header_end, |(_, end)| *end),
        records: records.into_iter().map(|(record, _)| record).collect(),
        complete_points,
        footer_points: finished_points,
    })
}

/// Reads the row records of a `.jsonl` stream (for tests and tooling),
/// skipping the header and footer lines and a trailing partial line.
///
/// # Errors
///
/// Propagates filesystem errors; a line that parses as none of the three
/// stream shapes maps to [`std::io::ErrorKind::InvalidData`].
pub fn read_stream(path: &Path) -> std::io::Result<Vec<StreamRecord>> {
    let text = fs::read_to_string(path)?;
    let mut records = Vec::new();
    for (line, _) in complete_lines(&text) {
        if let Ok(record) = serde_json::from_str::<StreamRecord>(line) {
            records.push(record);
        } else if serde_json::from_str::<StreamHeader>(line).is_err()
            && serde_json::from_str::<StreamEnd>(line).is_err()
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("not a stream line: {line}"),
            ));
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_stream(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bbc-stream-tests");
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}.jsonl"))
    }

    fn fp(id: &str) -> Fingerprint {
        Fingerprint::new(id)
            .param("grid", "[1,2,3]")
            .param("full", false)
    }

    #[test]
    fn rows_stream_one_record_per_sweep_point() {
        let id = "T0-stream-test";
        let mut t = StreamingTable::open_at(temp_stream(id), id, &["a", "b"], &fp(id), false);
        assert!(t.begin_point().is_none());
        t.row(&["1", "x"]);
        assert!(t.begin_point().is_none());
        t.row_raw(&["2", "y"], &["0.5"]);
        assert_eq!(t.len(), 2);
        let path = t.path().to_path_buf();
        let records = read_stream(&path).expect("stream written and parses");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].experiment, id);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[0].point, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(records[1].point, 1);
        assert_eq!(records[1].cells, vec!["2".to_string(), "y".to_string()]);
        assert_eq!(records[1].raw, vec!["0.5".to_string()]);
        assert!((records[1].raw_f64(0) - 0.5).abs() < f64::EPSILON);
        assert_eq!(records[0].columns, vec!["a".to_string(), "b".to_string()]);
        let table = t.into_table();
        assert_eq!(table.to_csv(), "a,b\n1,x\n2,y\n");
        // Header first, footer last.
        let text = fs::read_to_string(&path).unwrap();
        let first: StreamHeader = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.fingerprint, fp(id).canonical());
        let last: StreamEnd = serde_json::from_str(text.lines().last().unwrap()).unwrap();
        assert!(last.complete);
        assert_eq!(last.rows, 2);
        assert_eq!(last.points, 2);
        fs::remove_file(path).ok();
    }

    #[test]
    fn new_run_truncates_the_previous_stream() {
        let id = "T1-stream-test";
        let path = temp_stream(id);
        let mut t = StreamingTable::open_at(path.clone(), id, &["c"], &fp(id), false);
        t.begin_point();
        t.row(&["old"]);
        drop(t);
        let mut t = StreamingTable::open_at(path, id, &["c"], &fp(id), false);
        t.begin_point();
        t.row(&["new"]);
        let records = read_stream(t.path()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cells, vec!["new".to_string()]);
        fs::remove_file(t.path()).ok();
    }

    /// Writes a three-point stream (two rows, then one row, then one row),
    /// optionally finishing it with the footer.
    fn write_sample(path: &PathBuf, id: &str, finish: bool) -> Vec<String> {
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), false);
        assert!(t.begin_point().is_none());
        t.row_raw(&["a"], &["1"]);
        t.row_raw(&["b"], &["2"]);
        assert!(t.begin_point().is_none());
        t.row_raw(&["c"], &["3"]);
        assert!(t.begin_point().is_none());
        t.row_raw(&["d"], &["4"]);
        if finish {
            t.into_table();
        }
        fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn resume_replays_complete_points_and_recomputes_the_tail() {
        let id = "T2-stream-test";
        let path = temp_stream(id);
        write_sample(&path, id, false);
        // No footer: the last point (one row, "d") may be incomplete — it
        // must be dropped; points 0 and 1 replay.
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        let p0 = t.begin_point().expect("point 0 replays");
        assert_eq!(p0.len(), 2);
        assert_eq!(p0[0].cells, vec!["a".to_string()]);
        assert_eq!(p0[1].raw_u64(0), 2);
        let p1 = t.begin_point().expect("point 1 replays");
        assert_eq!(p1.len(), 1);
        assert!(t.begin_point().is_none(), "dropped tail point recomputes");
        t.row_raw(&["d"], &["4"]);
        assert_eq!(t.replayed_rows(), 3);
        let table = t.into_table();
        assert_eq!(table.to_csv(), "x\na\nb\nc\nd\n");
        fs::remove_file(path).ok();
    }

    #[test]
    fn finished_stream_resumes_with_every_point_replayed() {
        let id = "T3-stream-test";
        let path = temp_stream(id);
        let finished = write_sample(&path, id, true);
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        assert_eq!(t.begin_point().expect("replay").len(), 2);
        assert_eq!(t.begin_point().expect("replay").len(), 1);
        assert_eq!(t.begin_point().expect("replay").len(), 1);
        assert_eq!(t.replayed_rows(), 4);
        t.into_table();
        // Re-finishing reproduces the original file byte for byte.
        let after: Vec<String> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(after, finished);
        fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_trailing_line_is_dropped() {
        let id = "T4-stream-test";
        let path = temp_stream(id);
        write_sample(&path, id, false);
        // Simulate a kill mid-write: append a partial JSON line.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"experiment":"T4-stream-test","seq":4,"#);
        fs::write(&path, &bytes).unwrap();
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        assert_eq!(t.begin_point().expect("point 0 replays").len(), 2);
        assert_eq!(t.begin_point().expect("point 1 replays").len(), 1);
        assert!(t.begin_point().is_none());
        // The partial line was truncated away on open.
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "no partial line survives");
        assert_eq!(text.lines().count(), 1 + 3, "header + three kept records");
        fs::remove_file(path).ok();
    }

    #[test]
    fn a_torn_row_write_is_cut_back_and_stops_the_stream() {
        let id = "T11-stream-test";
        let path = temp_stream(id);
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), false);
        for cell in ["a", "b"] {
            assert!(t.begin_point().is_none());
            t.row(&[cell]);
        }
        let intact = fs::read_to_string(&path).unwrap();
        assert!(t.begin_point().is_none());
        t.sink.as_mut().expect("stream is open").tear_next = true;
        t.row(&["c"]);
        assert!(t.sink.is_none(), "a failed write stops the stream");
        t.row(&["d"]);
        assert_eq!(t.len(), 4, "the in-memory table keeps every row");
        assert_eq!(fs::read_to_string(&path).unwrap(), intact, "cut back");
        drop(t);
        // Without a footer the highest recorded point (1) may be partial:
        // point 0 replays and everything from point 1 on recomputes.
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        let p0 = t.begin_point().expect("point 0 replays");
        assert_eq!(p0.len(), 1);
        assert_eq!(p0[0].cells, vec!["a".to_string()]);
        assert!(t.begin_point().is_none());
        t.row(&["b"]);
        assert_eq!(t.into_table().to_csv(), "x\na\nb\n");
        fs::remove_file(path).ok();
    }

    #[test]
    fn fingerprint_mismatch_forces_fresh_start() {
        let id = "T5-stream-test";
        let path = temp_stream(id);
        write_sample(&path, id, true);
        let changed = Fingerprint::new(id).param("grid", "[1,2,3,4]");
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &changed, true);
        assert!(t.begin_point().is_none(), "no replay across fingerprints");
        t.row(&["fresh"]);
        let records = read_stream(&path).unwrap();
        assert_eq!(records.len(), 1, "old records were truncated");
        assert_eq!(records[0].cells, vec!["fresh".to_string()]);
        fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_header_forces_fresh_start() {
        let id = "T6-stream-test";
        let path = temp_stream(id);
        fs::write(&path, "not json at all\n").unwrap();
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        assert!(t.begin_point().is_none());
        t.row(&["ok"]);
        assert_eq!(read_stream(&path).unwrap().len(), 1);
        fs::remove_file(path).ok();
    }

    #[test]
    fn interior_corruption_keeps_only_the_prefix() {
        let id = "T7-stream-test";
        let path = temp_stream(id);
        let lines = write_sample(&path, id, true);
        // Corrupt the second record (point 0's second row): only the rows
        // before it survive, and point 0 is then incomplete ⇒ no replay.
        let mut broken = lines.clone();
        broken[2] = "{\"garbage\":true}".to_string();
        fs::write(&path, broken.join("\n") + "\n").unwrap();
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        assert!(t.begin_point().is_none(), "point 0 lost a row ⇒ recompute");
        fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "corrupt T10-stream-test stream footer")]
    fn inflated_footer_point_count_fails_loudly() {
        // A tampered footer claiming extra points would otherwise let every
        // real sweep point "replay" as silently empty; finishing the
        // resumed run must refuse to persist those artifacts.
        let id = "T10-stream-test";
        let path = temp_stream(id);
        write_sample(&path, id, true);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\"points\":3", "\"points\":99")).unwrap();
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        for _ in 0..3 {
            assert!(t.begin_point().is_some());
        }
        fs::remove_file(&path).ok();
        let _ = t.into_table(); // panics: footer claimed 99 points, run begun 3
    }

    #[test]
    fn missing_file_resumes_as_fresh() {
        let id = "T8-stream-test";
        let path = temp_stream(id);
        fs::remove_file(&path).ok();
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        assert!(t.begin_point().is_none());
        t.row(&["v"]);
        assert_eq!(read_stream(&path).unwrap().len(), 1);
        fs::remove_file(path).ok();
    }

    #[test]
    fn zero_row_points_replay_as_empty() {
        let id = "T9-stream-test";
        let path = temp_stream(id);
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), false);
        assert!(t.begin_point().is_none()); // point 0: no rows
        assert!(t.begin_point().is_none()); // point 1
        t.row(&["only"]);
        assert!(t.begin_point().is_none()); // point 2: row-less tail
        assert!(t.begin_point().is_none()); // point 3: row-less tail
        t.into_table();
        let mut t = StreamingTable::open_at(path.clone(), id, &["x"], &fp(id), true);
        let p0 = t.begin_point().expect("zero-row point replays");
        assert!(p0.is_empty());
        let p1 = t.begin_point().expect("point 1 replays");
        assert_eq!(p1.len(), 1);
        // The footer's point count makes even the row-less tail replayable:
        // a resumed finished run recomputes nothing.
        assert!(t.begin_point().expect("trailing point replays").is_empty());
        assert!(t.begin_point().expect("trailing point replays").is_empty());
        assert!(t.begin_point().is_none(), "beyond the finished run");
        fs::remove_file(path).ok();
    }
}
