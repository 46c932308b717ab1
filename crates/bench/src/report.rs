//! Minimal fixed-width table formatting for the evaluation binaries, and
//! [`crate::outln`], the one way they write stdout.

use std::io::{self, Write};

/// Write one line to stdout. Where `println!` panics, this exits as `pba`
/// does: 0 when the reader closed the pipe (`table1 | head -2`), 74
/// (EX_IOERR) on any other failed write.
pub fn line(args: std::fmt::Arguments) {
    if let Err(e) = writeln!(io::stdout().lock(), "{args}") {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write stdout: {e}");
        std::process::exit(74);
    }
}

/// `println!` through [`line()`]: a closed stdout is an exit, not a panic.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::report::line(format_args!($($arg)*))
    };
}

/// A simple text table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with adaptive precision.
pub fn secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else {
        format!("{:.1}ms", t * 1e3)
    }
}

/// Format a speedup factor.
pub fn speedup(base: f64, now: f64) -> String {
    if now > 0.0 {
        format!("x{:.2}", base / now)
    } else {
        "-".into()
    }
}

/// Format a byte count in MiB.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_padded_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        Table::new(&["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.0123), "12.3ms");
        assert_eq!(secs(2.5), "2.50");
        assert_eq!(speedup(10.0, 2.0), "x5.00");
        assert_eq!(mib(1024 * 1024), "1.00");
    }
}
