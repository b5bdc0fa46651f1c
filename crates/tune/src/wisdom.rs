//! Versioned, checksummed, machine-keyed wisdom persistence.
//!
//! The on-disk format is a deliberately boring line-oriented text file —
//! the workspace vendors no JSON codec, and a format a human can read
//! and `diff` is an asset for a tuning artifact:
//!
//! ```text
//! soifft-wisdom 2
//! fingerprint avx2|8|x86_64|linux
//! checksum 6ab34fd1c9e02b77
//! rates fft=2.416e9 conv=5.1e9 net=3.9e9 lat=2.1e-6
//! plan n=1048576 procs=8 precision=f64 s=8 mu=8/7 b=72 strategy=interchange exchange=overlapped fused=0 measured=1.94e-2
//! ```
//!
//! * line 1: magic + schema version — an unknown version is rejected
//!   ([`WisdomError::UnsupportedSchema`]), never half-parsed;
//! * line 2: the machine fingerprint the wisdom was measured on; a
//!   mismatch ([`WisdomError::ForeignFingerprint`]) means the plans are
//!   someone else's measurements and must not be adopted;
//! * line 3: [`soifft_num::fnv1a`] over every byte after this line —
//!   truncation and bit flips surface as [`WisdomError::ChecksumMismatch`];
//! * the body: the fitted [`RateModel`] and one `plan` line per tuned
//!   shape.
//!
//! Saves are atomic (write `<path>.tmp.<pid>`, then rename) so a crash
//! mid-save can never leave a torn file — the same idiom the cluster
//! crate's persistent checkpoint store uses.

use std::fmt;
use std::path::Path;

use soifft_core::wisdom::{TunedExec, WisdomKey};
use soifft_core::{ConvStrategy, ExchangePlan, Precision, Rational, SoiParams};

use crate::RateModel;

/// On-disk schema version; bump on any line-format change. Version 2
/// dropped the `buffering` strategy and the `chunked:`, `per-segment` and
/// `proxied:` exchange labels; a v1 file is rejected whole.
pub const WISDOM_SCHEMA_VERSION: u32 = 2;

const MAGIC: &str = "soifft-wisdom";

/// One persisted winner: a full shape + execution knobs + the
/// measurement that won it its slot.
#[derive(Clone, Debug, PartialEq)]
pub struct WisdomEntry {
    /// The tuned SOI shape (may differ from the caller's baseline when
    /// shape exploration found a faster valid shape).
    pub params: SoiParams,
    /// The tuned execution knobs.
    pub exec: TunedExec,
    /// Back-half precision the entry applies to.
    pub precision: Precision,
    /// Best measured wall seconds when this entry was recorded.
    pub measured_s: f64,
}

impl WisdomEntry {
    /// The in-process registry key for this entry.
    pub fn key(&self) -> WisdomKey {
        WisdomKey {
            n: self.params.n,
            procs: self.params.procs,
            precision: self.precision,
        }
    }
}

/// Why a wisdom file could not be used. Every variant degrades the
/// tuner to Estimate-mode rather than panicking or adopting bogus
/// plans.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum WisdomError {
    /// Filesystem failure (message carries the `io::Error` text).
    Io(String),
    /// First line is not `soifft-wisdom <version>`.
    BadMagic {
        /// What the first line actually was.
        found: String,
    },
    /// Schema version this build does not understand.
    UnsupportedSchema {
        /// Version found in the file.
        found: u32,
    },
    /// Body bytes do not hash to the recorded checksum (truncation or
    /// corruption).
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The file was measured on a different machine.
    ForeignFingerprint {
        /// Fingerprint in the file.
        file: String,
        /// This machine's fingerprint.
        machine: String,
    },
    /// A body line failed to parse.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for WisdomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WisdomError::Io(msg) => write!(f, "wisdom io: {msg}"),
            WisdomError::BadMagic { found } => {
                write!(f, "not a wisdom file (first line {found:?})")
            }
            WisdomError::UnsupportedSchema { found } => write!(
                f,
                "wisdom schema v{found} not supported (this build reads v{WISDOM_SCHEMA_VERSION})"
            ),
            WisdomError::ChecksumMismatch { expected, found } => write!(
                f,
                "wisdom checksum mismatch: recorded {expected:016x}, computed {found:016x}"
            ),
            WisdomError::ForeignFingerprint { file, machine } => write!(
                f,
                "wisdom measured on {file:?} but this machine is {machine:?}"
            ),
            WisdomError::Parse { line, what } => write!(f, "wisdom line {line}: {what}"),
        }
    }
}

impl std::error::Error for WisdomError {}

/// The deserialized contents of one wisdom file.
#[derive(Clone, Debug, PartialEq)]
pub struct WisdomFile {
    /// Machine fingerprint the wisdom was measured on.
    pub fingerprint: String,
    /// Fitted rate coefficients at save time.
    pub rates: RateModel,
    /// Tuned winners.
    pub entries: Vec<WisdomEntry>,
}

/// This machine's fingerprint: SIMD kernel backend, hardware thread
/// count, architecture, OS. Wisdom is only adopted when all four match.
pub fn machine_fingerprint() -> String {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    format!(
        "{}|{}|{}|{}",
        soifft_num::simd::kernel_backend(),
        threads,
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

/// Stable text label for an exchange plan (`monolithic`, `overlapped`).
pub fn exchange_label(e: ExchangePlan) -> &'static str {
    match e {
        ExchangePlan::Monolithic => "monolithic",
        ExchangePlan::Overlapped => "overlapped",
    }
}

fn parse_exchange(s: &str) -> Option<ExchangePlan> {
    match s {
        "monolithic" => Some(ExchangePlan::Monolithic),
        "overlapped" => Some(ExchangePlan::Overlapped),
        _ => None,
    }
}

/// Stable text label for a precision (`f64`, `f32`, `split`).
pub fn precision_label(p: Precision) -> &'static str {
    match p {
        Precision::F64 => "f64",
        Precision::F32 => "f32",
        Precision::Split => "split",
    }
}

fn parse_precision(s: &str) -> Option<Precision> {
    match s {
        "f64" => Some(Precision::F64),
        "f32" => Some(Precision::F32),
        "split" => Some(Precision::Split),
        _ => None,
    }
}

fn parse_strategy(s: &str) -> Option<ConvStrategy> {
    ConvStrategy::ALL.into_iter().find(|c| c.label() == s)
}

/// `key=value` field extractor for one body line.
fn field<'a>(line: &'a str, key: &str, lineno: usize) -> Result<&'a str, WisdomError> {
    let prefix = format!("{key}=");
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(prefix.as_str()))
        .ok_or_else(|| WisdomError::Parse {
            line: lineno,
            what: format!("missing field {key}"),
        })
}

fn parse_f64(s: &str, lineno: usize) -> Result<f64, WisdomError> {
    let v: f64 = s.parse().map_err(|_| WisdomError::Parse {
        line: lineno,
        what: format!("bad float {s:?}"),
    })?;
    if !v.is_finite() {
        return Err(WisdomError::Parse {
            line: lineno,
            what: format!("non-finite float {s:?}"),
        });
    }
    Ok(v)
}

fn parse_usize(s: &str, lineno: usize) -> Result<usize, WisdomError> {
    s.parse().map_err(|_| WisdomError::Parse {
        line: lineno,
        what: format!("bad integer {s:?}"),
    })
}

impl WisdomFile {
    /// Serializes to the on-disk text form, checksum included.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "rates fft={:e} conv={:e} net={:e} lat={:e}\n",
            self.rates.fft_flops_per_s,
            self.rates.conv_flops_per_s,
            self.rates.net_bytes_per_s,
            self.rates.net_latency_s,
        ));
        for e in &self.entries {
            body.push_str(&format!(
                "plan n={} procs={} precision={} s={} mu={}/{} b={} strategy={} exchange={} fused={} measured={:e}\n",
                e.params.n,
                e.params.procs,
                precision_label(e.precision),
                e.params.segments_per_proc,
                e.params.mu.num(),
                e.params.mu.den(),
                e.params.conv_width,
                e.exec.strategy.label(),
                exchange_label(e.exec.exchange),
                u8::from(e.exec.fused),
                e.measured_s,
            ));
        }
        format!(
            "{MAGIC} {WISDOM_SCHEMA_VERSION}\nfingerprint {}\nchecksum {:016x}\n{body}",
            self.fingerprint,
            soifft_num::fnv1a(body.as_bytes()),
        )
    }

    /// Parses the on-disk text form, verifying magic, schema version and
    /// checksum (but not the fingerprint — see [`WisdomFile::load_for`]).
    pub fn parse(text: &str) -> Result<Self, WisdomError> {
        let mut rest = text;
        let mut take_line = || -> Option<&str> {
            if rest.is_empty() {
                return None;
            }
            let (line, tail) = match rest.find('\n') {
                Some(i) => (&rest[..i], &rest[i + 1..]),
                None => (rest, ""),
            };
            rest = tail;
            Some(line)
        };

        let first = take_line().unwrap_or("");
        let version = first
            .strip_prefix(MAGIC)
            .map(str::trim)
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| WisdomError::BadMagic {
                found: first.chars().take(60).collect(),
            })?;
        if version != WISDOM_SCHEMA_VERSION {
            return Err(WisdomError::UnsupportedSchema { found: version });
        }

        let fingerprint = take_line()
            .and_then(|l| l.strip_prefix("fingerprint "))
            .ok_or(WisdomError::Parse {
                line: 2,
                what: "expected `fingerprint <id>`".to_string(),
            })?
            .to_string();

        let expected = take_line()
            .and_then(|l| l.strip_prefix("checksum "))
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or(WisdomError::Parse {
                line: 3,
                what: "expected `checksum <16 hex digits>`".to_string(),
            })?;
        let found = soifft_num::fnv1a(rest.as_bytes());
        if found != expected {
            return Err(WisdomError::ChecksumMismatch { expected, found });
        }

        let mut rates = None;
        let mut entries = Vec::new();
        for (i, line) in rest.lines().enumerate() {
            let lineno = i + 4;
            if line.is_empty() {
                continue;
            }
            if line.starts_with("rates ") {
                rates = Some(RateModel {
                    fft_flops_per_s: parse_f64(field(line, "fft", lineno)?, lineno)?,
                    conv_flops_per_s: parse_f64(field(line, "conv", lineno)?, lineno)?,
                    net_bytes_per_s: parse_f64(field(line, "net", lineno)?, lineno)?,
                    net_latency_s: parse_f64(field(line, "lat", lineno)?, lineno)?,
                });
            } else if line.starts_with("plan ") {
                let mu_field = field(line, "mu", lineno)?;
                let (num, den) = mu_field.split_once('/').ok_or_else(|| WisdomError::Parse {
                    line: lineno,
                    what: format!("bad rational {mu_field:?}"),
                })?;
                let (num, den) = (parse_usize(num, lineno)?, parse_usize(den, lineno)?);
                if num == 0 || den == 0 {
                    return Err(WisdomError::Parse {
                        line: lineno,
                        what: format!("bad rational {mu_field:?}"),
                    });
                }
                let strategy_field = field(line, "strategy", lineno)?;
                let exchange_field = field(line, "exchange", lineno)?;
                let precision_field = field(line, "precision", lineno)?;
                entries.push(WisdomEntry {
                    params: SoiParams {
                        n: parse_usize(field(line, "n", lineno)?, lineno)?,
                        procs: parse_usize(field(line, "procs", lineno)?, lineno)?,
                        segments_per_proc: parse_usize(field(line, "s", lineno)?, lineno)?,
                        mu: Rational::new(num, den),
                        conv_width: parse_usize(field(line, "b", lineno)?, lineno)?,
                    },
                    exec: TunedExec {
                        strategy: parse_strategy(strategy_field).ok_or_else(|| {
                            WisdomError::Parse {
                                line: lineno,
                                what: format!("unknown strategy {strategy_field:?}"),
                            }
                        })?,
                        exchange: parse_exchange(exchange_field).ok_or_else(|| {
                            WisdomError::Parse {
                                line: lineno,
                                what: format!("unknown exchange {exchange_field:?}"),
                            }
                        })?,
                        fused: match field(line, "fused", lineno)? {
                            "0" => false,
                            "1" => true,
                            other => {
                                return Err(WisdomError::Parse {
                                    line: lineno,
                                    what: format!("bad fused flag {other:?}"),
                                })
                            }
                        },
                    },
                    precision: parse_precision(precision_field).ok_or_else(|| {
                        WisdomError::Parse {
                            line: lineno,
                            what: format!("unknown precision {precision_field:?}"),
                        }
                    })?,
                    measured_s: parse_f64(field(line, "measured", lineno)?, lineno)?,
                });
            } else {
                return Err(WisdomError::Parse {
                    line: lineno,
                    what: format!(
                        "unknown record {:?}",
                        line.chars().take(20).collect::<String>()
                    ),
                });
            }
        }
        let rates = rates.ok_or(WisdomError::Parse {
            line: 4,
            what: "missing rates line".to_string(),
        })?;
        Ok(WisdomFile {
            fingerprint,
            rates,
            entries,
        })
    }

    /// Loads and verifies `path` (magic, schema, checksum) without a
    /// fingerprint check — callers that only want to inspect a file.
    pub fn load(path: &Path) -> Result<Self, WisdomError> {
        let text = std::fs::read_to_string(path).map_err(|e| WisdomError::Io(e.to_string()))?;
        Self::parse(&text)
    }

    /// Loads `path` and additionally requires the file's fingerprint to
    /// equal `fingerprint` — the only entry point the tuner uses, so
    /// foreign measurements are never adopted.
    pub fn load_for(path: &Path, fingerprint: &str) -> Result<Self, WisdomError> {
        let file = Self::load(path)?;
        if file.fingerprint != fingerprint {
            return Err(WisdomError::ForeignFingerprint {
                file: file.fingerprint,
                machine: fingerprint.to_string(),
            });
        }
        Ok(file)
    }

    /// Atomically writes to `path`: serialize, write `<path>.tmp.<pid>`,
    /// rename over the destination. Readers never observe a torn file.
    pub fn save(&self, path: &Path) -> Result<(), WisdomError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| WisdomError::Io(e.to_string()))?;
            }
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_text()).map_err(|e| WisdomError::Io(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            WisdomError::Io(e.to_string())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WisdomFile {
        WisdomFile {
            fingerprint: "avx2|8|x86_64|linux".to_string(),
            rates: RateModel {
                fft_flops_per_s: 2.416e9,
                conv_flops_per_s: 5.1e9,
                net_bytes_per_s: 3.9e9,
                net_latency_s: 2.1e-6,
            },
            entries: vec![
                WisdomEntry {
                    params: SoiParams {
                        n: 1 << 20,
                        procs: 8,
                        segments_per_proc: 8,
                        mu: Rational::new(8, 7),
                        conv_width: 72,
                    },
                    exec: TunedExec {
                        strategy: ConvStrategy::Interchanged,
                        exchange: ExchangePlan::Overlapped,
                        fused: false,
                    },
                    precision: Precision::F64,
                    measured_s: 1.94e-2,
                },
                WisdomEntry {
                    params: SoiParams {
                        n: 1 << 22,
                        procs: 4,
                        segments_per_proc: 2,
                        mu: Rational::new(2, 1),
                        conv_width: 16,
                    },
                    exec: TunedExec {
                        strategy: ConvStrategy::RowMajor,
                        exchange: ExchangePlan::Monolithic,
                        fused: true,
                    },
                    precision: Precision::Split,
                    measured_s: 7.3e-3,
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let file = sample();
        let parsed = WisdomFile::parse(&file.to_text()).unwrap();
        assert_eq!(parsed, file);
    }

    #[test]
    fn truncation_fails_checksum() {
        let text = sample().to_text();
        let truncated = &text[..text.len() - 10];
        assert!(matches!(
            WisdomFile::parse(truncated),
            Err(WisdomError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn unknown_schema_is_rejected_whole() {
        let text = sample()
            .to_text()
            .replace("soifft-wisdom 2", "soifft-wisdom 99");
        assert_eq!(
            WisdomFile::parse(&text),
            Err(WisdomError::UnsupportedSchema { found: 99 })
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            WisdomFile::parse("hello world\n"),
            Err(WisdomError::BadMagic { .. })
        ));
    }

    #[test]
    fn foreign_fingerprint_is_rejected_by_load_for() {
        let dir = std::env::temp_dir().join(format!("soifft-wisdom-test-{}", std::process::id()));
        let path = dir.join("foreign.wisdom");
        sample().save(&path).unwrap();
        let err = WisdomFile::load_for(&path, "totally|different|machine|id").unwrap_err();
        assert!(matches!(err, WisdomError::ForeignFingerprint { .. }));
        // But the un-fingerprinted loader can still inspect it.
        assert_eq!(WisdomFile::load(&path).unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
