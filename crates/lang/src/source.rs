//! Source-file management: file identities, byte spans, and line/column
//! mapping.
//!
//! All analysis stages reference source locations through [`Span`]s, which
//! are cheap `(file, start, end)` byte ranges. A [`SourceMap`] owns the text
//! of every file under analysis and resolves spans back to text and to
//! human-readable [`LineCol`] positions.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifies a file registered in a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// A half-open byte range `[start, end)` within a single source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// File the range belongs to.
    pub file: FileId,
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a new span. `start` must not exceed `end`.
    pub fn new(file: FileId, start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "span start {start} > end {end}");
        Span { file, start, end }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Smallest span covering both `self` and `other`.
    ///
    /// # Panics
    /// Panics in debug builds if the spans belong to different files.
    pub fn merge(&self, other: Span) -> Span {
        debug_assert_eq!(self.file, other.file, "merging spans across files");
        Span {
            file: self.file,
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// A 1-based line and column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (byte) number.
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A single registered source file: its path, contents, and a line index.
///
/// The text is shared: a caller that keeps a file's text resident
/// (the daemon's source index) registers it without copying a byte.
/// The line index is built on first use, so a file whose facts come
/// from a cache never scans its text for newlines.
#[derive(Debug, Clone)]
pub struct SourceFile {
    id: FileId,
    path: String,
    text: Arc<String>,
    /// Byte offsets at which each line starts; `line_starts[0] == 0`.
    line_starts: OnceLock<Vec<u32>>,
}

impl SourceFile {
    fn line_starts(&self) -> &[u32] {
        self.line_starts.get_or_init(|| {
            let mut starts = vec![0u32];
            for (i, b) in self.text.bytes().enumerate() {
                if b == b'\n' {
                    starts.push(i as u32 + 1);
                }
            }
            starts
        })
    }

    /// The file's identity within its [`SourceMap`].
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Path (or synthetic name) the file was registered under.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Full text of the file.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of lines (a trailing newline does not add a line).
    pub fn line_count(&self) -> usize {
        let lines = self.line_starts().len();
        if self.text.ends_with('\n') {
            lines - 1
        } else {
            lines
        }
    }

    /// Resolves a byte offset to a 1-based line/column.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let starts = self.line_starts();
        let line = match starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        };
        LineCol {
            line: line as u32 + 1,
            col: offset - starts[line] + 1,
        }
    }

    /// Text of the 1-based line `line`, without its terminating newline.
    /// Returns `None` if the line number is out of range.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        let idx = line.checked_sub(1)? as usize;
        let starts = self.line_starts();
        let start = *starts.get(idx)? as usize;
        let end = starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(self.text.len());
        Some(self.text[start..end].trim_end_matches(['\n', '\r']))
    }

    /// Iterates over `(line_number, line_text)` pairs.
    pub fn lines(&self) -> impl Iterator<Item = (u32, &str)> {
        (1..=self.line_count() as u32).filter_map(move |n| self.line_text(n).map(|t| (n, t)))
    }
}

/// Owns all source files under analysis and resolves [`Span`]s.
#[derive(Debug, Default, Clone)]
pub struct SourceMap {
    files: Vec<SourceFile>,
}

impl SourceMap {
    /// Creates an empty source map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file and returns its id.
    pub fn add_file(&mut self, path: impl Into<String>, text: impl Into<String>) -> FileId {
        self.add_shared(path, Arc::new(text.into()))
    }

    /// Registers a file whose text the caller shares; no byte is copied.
    pub fn add_shared(&mut self, path: impl Into<String>, text: Arc<String>) -> FileId {
        let id = FileId(self.files.len() as u32);
        let path = path.into();
        self.files.push(SourceFile {
            id,
            path,
            text,
            line_starts: OnceLock::new(),
        });
        id
    }

    /// Looks up a file by id.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this map.
    pub fn file(&self, id: FileId) -> &SourceFile {
        &self.files[id.0 as usize]
    }

    /// All registered files, in registration order.
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the map holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The text covered by `span`.
    pub fn snippet(&self, span: Span) -> &str {
        let f = self.file(span.file);
        &f.text()[span.start as usize..span.end as usize]
    }

    /// Resolves the start of `span` to a line/column position.
    pub fn line_col(&self, span: Span) -> LineCol {
        self.file(span.file).line_col(span.start)
    }

    /// Formats `span` as `path:line:col` for diagnostics.
    pub fn describe(&self, span: Span) -> String {
        let f = self.file(span.file);
        let lc = f.line_col(span.start);
        format!("{}:{}", f.path(), lc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_resolution() {
        let mut sm = SourceMap::new();
        let id = sm.add_file("a.c", "int x;\nint y;\n");
        let f = sm.file(id);
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(4), LineCol { line: 1, col: 5 });
        assert_eq!(f.line_col(7), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_count(), 2);
    }

    #[test]
    fn line_text_and_lines_iter() {
        let mut sm = SourceMap::new();
        let id = sm.add_file("a.c", "alpha\nbeta\r\ngamma");
        let f = sm.file(id);
        assert_eq!(f.line_text(1), Some("alpha"));
        assert_eq!(f.line_text(2), Some("beta"));
        assert_eq!(f.line_text(3), Some("gamma"));
        assert_eq!(f.line_text(4), None);
        assert_eq!(f.lines().count(), 3);
    }

    #[test]
    fn snippet_and_merge() {
        let mut sm = SourceMap::new();
        let id = sm.add_file("a.c", "hello world");
        let a = Span::new(id, 0, 5);
        let b = Span::new(id, 6, 11);
        assert_eq!(sm.snippet(a), "hello");
        assert_eq!(sm.snippet(b), "world");
        let m = a.merge(b);
        assert_eq!(sm.snippet(m), "hello world");
        assert_eq!(m.len(), 11);
        assert!(!m.is_empty());
    }

    #[test]
    fn empty_file_has_one_line() {
        let mut sm = SourceMap::new();
        let id = sm.add_file("e.c", "");
        assert_eq!(sm.file(id).line_count(), 1);
        assert_eq!(sm.file(id).line_text(1), Some(""));
    }
}
