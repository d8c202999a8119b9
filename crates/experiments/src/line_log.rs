//! The append-only line log behind the experiment streams
//! ([`crate::StreamingTable`]) and the `bbc-serve` journal.
//!
//! A [`LineLog`] is a file that always ends on a complete line. Each
//! [`LineLog::append`] is one `write_all` of a newline-terminated line plus
//! a flush. A write that fails partway (a full disk, an I/O error) is cut
//! back to the last complete line before the error returns, so the next
//! line never lands after a fragment. If the cut fails too, the log is
//! fenced: every later append fails without writing until the file is
//! reopened ([`LineLog::reopen`]), which drops the fragment.
//!
//! Readers split a log with [`complete_lines`], which never yields a
//! trailing fragment: the torn tail of a killed writer is not part of the
//! log. Reopening at the end of the last line a reader accepted truncates
//! everything after it.
//!
//! ```
//! use bbc_experiments::complete_lines;
//!
//! let lines: Vec<_> = complete_lines("head\n{\"a\":1}\n{\"a\"").collect();
//! assert_eq!(lines, [("head", 5), ("{\"a\":1}", 13)]);
//! ```

use std::fs::{File, OpenOptions};
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// An append-only file of newline-terminated lines (see the module docs).
#[derive(Debug)]
pub struct LineLog {
    file: File,
    /// Where the file's last complete line ends; a failed append is cut
    /// back to here.
    len: u64,
    /// Why appends are refused, once a failed append could not be cut back
    /// or the owner fenced the log.
    fenced: Option<String>,
    /// Fault injection: the next append writes half its line and fails.
    #[cfg(test)]
    pub(crate) tear_next: bool,
    /// Fault injection: cutting a failed append back fails too.
    #[cfg(test)]
    pub(crate) rollback_fails: bool,
}

impl LineLog {
    /// Creates (truncating) the log at `path` holding the newline-terminated
    /// `header`.
    ///
    /// # Errors
    ///
    /// The I/O error of creating the file or writing the header.
    pub fn create(path: &Path, header: &str) -> io::Result<Self> {
        let mut log = Self::new(File::create(path)?, 0);
        log.append(header)?;
        Ok(log)
    }

    /// Opens the existing log at `path`, truncated to `len` bytes (the end
    /// of its last accepted line), for appending.
    ///
    /// # Errors
    ///
    /// The I/O error of opening, truncating or seeking the file.
    pub fn reopen(path: &Path, len: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self::new(file, len))
    }

    fn new(file: File, len: u64) -> Self {
        Self {
            file,
            len,
            fenced: None,
            #[cfg(test)]
            tear_next: false,
            #[cfg(test)]
            rollback_fails: false,
        }
    }

    /// Appends one newline-terminated line with a single `write_all`, then
    /// flushes. A failed write is cut back to the last complete line before
    /// the error returns; if the cut fails too, the log is fenced.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a line without its newline
    /// (nothing is written), the write error, or the fence reason once the
    /// log is fenced.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        if !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a log line must end with a newline",
            ));
        }
        if let Some(reason) = &self.fenced {
            return Err(io::Error::other(format!(
                "log fenced until reopened: {reason}"
            )));
        }
        match self.write(line.as_bytes()) {
            Ok(()) => {
                self.len += line.len() as u64;
                Ok(())
            }
            Err(e) => {
                if let Err(cut) = self.cut_back() {
                    self.fence(format!(
                        "append failed ({e}), then cutting it back failed ({cut})"
                    ));
                }
                Err(e)
            }
        }
    }

    /// Refuses every later append, with `reason` in its error, until the
    /// file is reopened.
    pub fn fence(&mut self, reason: String) {
        self.fenced = Some(reason);
    }

    fn write(&mut self, line: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.tear_next) {
            self.file.write_all(&line[..line.len() / 2])?;
            return Err(io::Error::other("injected torn append"));
        }
        self.file.write_all(line)?;
        self.file.flush()
    }

    /// Truncates the file to its last complete line, with the cursor at the
    /// new end.
    fn cut_back(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if self.rollback_fails {
            return Err(io::Error::other("injected rollback failure"));
        }
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::End(0)).map(drop)
    }
}

/// The newline-terminated lines of `text`, each without its newline and
/// paired with the byte offset just past it. A trailing fragment without a
/// newline is never yielded.
pub fn complete_lines(text: &str) -> impl Iterator<Item = (&str, u64)> {
    let mut end = 0u64;
    text.split_inclusive('\n').map_while(move |line| {
        let body = line.strip_suffix('\n')?;
        end += line.len() as u64;
        Some((body, end))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bbc-line-log-tests");
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn a_torn_append_is_cut_back_before_the_next_line() {
        let path = temp_log("torn");
        let mut log = LineLog::create(&path, "head\n").unwrap();
        log.append("one\n").unwrap();
        assert!(log.append("unterminated").is_err());
        log.tear_next = true;
        assert!(log.append("two-torn\n").is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), "head\none\n");
        log.append("two\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "head\none\ntwo\n");
        fs::remove_file(path).ok();
    }

    #[test]
    fn a_failed_cut_fences_the_log() {
        let path = temp_log("fenced");
        let mut log = LineLog::create(&path, "head\n").unwrap();
        log.tear_next = true;
        log.rollback_fails = true;
        assert!(log.append("one-torn\n").is_err());
        let torn = fs::read_to_string(&path).unwrap();
        assert_eq!(torn, "head\none-");
        for _ in 0..3 {
            let refused = log.append("two\n").unwrap_err();
            assert!(refused.to_string().contains("fenced"), "{refused}");
        }
        assert_eq!(fs::read_to_string(&path).unwrap(), torn, "nothing written");

        let mut owner_fenced = LineLog::create(&path, "head\n").unwrap();
        owner_fenced.fence("restore failed".to_string());
        assert!(owner_fenced.append("one\n").is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), "head\n");
        fs::remove_file(path).ok();
    }

    #[test]
    fn reopen_drops_a_trailing_fragment() {
        let path = temp_log("reopen");
        fs::write(&path, "head\n\none\ntwo-fr").unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = complete_lines(&text).collect();
        assert_eq!(lines, [("head", 5), ("", 6), ("one", 10)]);
        let mut log = LineLog::reopen(&path, lines[2].1).unwrap();
        log.append("two\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "head\n\none\ntwo\n");
        fs::remove_file(path).ok();
    }
}
