//! The one command-line parser of the workspace's bins (`polis`, `paper`).
//!
//! A bin declares its commands, the positional arguments they take and
//! one table of [`Flag`]s. [`Args::parse`] rejects an unknown command, an
//! unknown flag, a flag the command does not read, a flag given twice, a
//! value flag given no value, and a missing or extra positional
//! argument; [`usage_line`] renders a command's flags from the same
//! table. What each flag means stays with the bin, which reads it
//! through [`Args::value`] and [`Args::has`].

/// One flag: how it is typed, the value it takes as shown in the usage
/// text (`None` for a switch), and the commands that read it (every
/// other command rejects it).
pub struct Flag(
    pub &'static str,
    pub Option<&'static str>,
    pub &'static [&'static str],
);

/// A parsed command line: the command, its positional arguments and the
/// flags given, in order.
#[derive(Debug)]
pub struct Args {
    /// The command, as listed in the bin's command table.
    pub command: &'static str,
    /// The positional arguments, one per name the parser was given.
    pub positional: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `raw` (the arguments after the program name): first one of
    /// `commands`, then flags from `table` and exactly one argument per
    /// name in `positional` (shown as e.g. `<spec>` in errors), in any
    /// order. An argument not starting with `-` is positional; a value
    /// flag takes the next argument unless that starts with `-`.
    ///
    /// # Errors
    ///
    /// A one-line message naming what is wrong; callers append their
    /// usage text.
    pub fn parse(
        raw: Vec<String>,
        commands: &[&'static str],
        positional: &[&str],
        table: &[Flag],
    ) -> Result<Args, String> {
        let mut args = raw.into_iter();
        let name = args.next().ok_or("missing command")?;
        let command = commands
            .iter()
            .copied()
            .find(|&c| c == name)
            .ok_or_else(|| format!("unknown command `{name}`"))?;
        let mut given = Vec::new();
        let mut flags = Vec::new();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                if given.len() == positional.len() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                given.push(arg);
                continue;
            }
            let Flag(name, shown, readers) = table
                .iter()
                .find(|f| f.0 == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            if !readers.contains(&command) {
                return Err(format!("`{command}` does not take `{arg}`"));
            }
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("`{arg}` given twice"));
            }
            let value = match shown {
                Some(what) => Some(
                    args.next()
                        .filter(|v| !v.starts_with('-'))
                        .ok_or_else(|| format!("`{arg}` takes a value: {what}"))?,
                ),
                None => None,
            };
            flags.push((*name, value));
        }
        if let Some(missing) = positional.get(given.len()) {
            return Err(format!("missing {missing} argument"));
        }
        Ok(Args {
            command,
            positional: given,
            flags,
        })
    }

    /// The value given to the value flag `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether the flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }
}

/// `head` followed by `[flag VALUE]` for each flag of `table` that
/// `command` reads, in table order, continued on lines indented by six
/// spaces so that no line runs past column 78.
pub fn usage_line(head: &str, command: &str, table: &[Flag]) -> String {
    let mut line = head.to_owned();
    let mut width = head.len();
    for Flag(name, shown, readers) in table {
        if !readers.contains(&command) {
            continue;
        }
        let item = match shown {
            Some(v) => format!("[{name} {v}]"),
            None => format!("[{name}]"),
        };
        if width + 1 + item.len() > 78 {
            line.push_str("\n     ");
            width = 5;
        }
        line.push(' ');
        line.push_str(&item);
        width += 1 + item.len();
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag("--fast", None, &["run"]),
        Flag("--out", Some("FILE"), &["run", "show"]),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        let raw = args.iter().map(|a| a.to_string()).collect();
        Args::parse(raw, &["run", "show"], &["<spec>"], TABLE)
    }

    #[test]
    fn reads_command_positional_and_flags_in_any_order() {
        let args = parse(&["run", "--out", "x.json", "a.pol", "--fast"]).unwrap();
        assert_eq!(args.command, "run");
        assert_eq!(args.positional, ["a.pol"]);
        assert_eq!(args.value("--out"), Some("x.json"));
        assert!(args.has("--fast"));
        assert!(!parse(&["show", "a.pol"]).unwrap().has("--out"));
    }

    #[test]
    fn rejects_what_the_table_does_not_allow() {
        for (args, want) in [
            (&[][..], "missing command"),
            (&["jump", "a.pol"], "unknown command `jump`"),
            (&["run", "a.pol", "--slow"], "unknown flag `--slow`"),
            (
                &["show", "a.pol", "--fast"],
                "`show` does not take `--fast`",
            ),
            (&["run", "a.pol", "--out"], "`--out` takes a value: FILE"),
            (
                &["run", "a.pol", "--fast", "--fast"],
                "`--fast` given twice",
            ),
            (
                &["run", "--out", "--fast", "a.pol"],
                "`--out` takes a value",
            ),
            (&["run"], "missing <spec> argument"),
            (&["run", "a.pol", "b.pol"], "unexpected argument `b.pol`"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(want), "{args:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_the_command_flags_and_wraps_at_78_columns() {
        assert_eq!(usage_line("x show", "show", TABLE), "x show [--out FILE]");
        let head = "y".repeat(68);
        assert_eq!(
            usage_line(&head, "run", TABLE),
            format!("{head} [--fast]\n      [--out FILE]")
        );
    }
}
