//! Event formulas: token sequences with `+ - * /` over hardware events
//! and constants, evaluated with standard operator precedence.

use crate::error::PmoveError;
use std::fmt;

/// One token of a formula.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// A hardware event name (`MEM_INST_RETIRED:ALL_LOADS`).
    Event(String),
    /// A numeric constant (the `* 8` in width-scaling formulas).
    Const(f64),
    /// An operator: `+`, `-`, `*`, `/`.
    Op(char),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Event(e) => write!(f, "{e}"),
            Token::Const(c) => write!(f, "{c}"),
            Token::Op(o) => write!(f, "{o}"),
        }
    }
}

/// A parsed formula.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    /// Token sequence: operand (op operand)*.
    pub(crate) tokens: Vec<Token>,
}

impl Formula {
    /// Parse the right-hand side of a config line. Operands and operators
    /// are whitespace-separated; `8`/`8.0` parse as constants, everything
    /// else as a hardware event name.
    pub fn parse(text: &str) -> Result<Formula, PmoveError> {
        let mut tokens = Vec::new();
        for (i, raw) in text.split_whitespace().enumerate() {
            let expect_op = i % 2 == 1;
            if expect_op {
                let mut chars = raw.chars();
                match (chars.next(), chars.next()) {
                    (Some(c @ ('+' | '-' | '*' | '/')), None) => tokens.push(Token::Op(c)),
                    _ => {
                        return Err(PmoveError::BadEventConfig(format!(
                            "expected operator, found `{raw}` in `{text}`"
                        )))
                    }
                }
            } else if let Ok(c) = raw.parse::<f64>() {
                tokens.push(Token::Const(c));
            } else {
                tokens.push(Token::Event(raw.to_string()));
            }
        }
        if tokens.is_empty() {
            return Err(PmoveError::BadEventConfig("empty formula".into()));
        }
        if tokens.len() % 2 == 0 {
            return Err(PmoveError::BadEventConfig(format!(
                "formula ends with an operator: `{text}`"
            )));
        }
        Ok(Formula { tokens })
    }

    /// Hardware events referenced by the formula.
    pub(crate) fn events(&self) -> Vec<&str> {
        self.tokens
            .iter()
            .filter_map(|t| match t {
                Token::Event(e) => Some(e.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Evaluate with standard precedence (`*`/`/` bind tighter than
    /// `+`/`-`), resolving events through `resolve`. Unknown events make
    /// the evaluation fail.
    pub fn eval<F>(&self, mut resolve: F) -> Result<f64, PmoveError>
    where
        F: FnMut(&str) -> Option<f64>,
    {
        // First pass: resolve operands.
        let mut operands: Vec<f64> = Vec::new();
        let mut ops: Vec<char> = Vec::new();
        for t in &self.tokens {
            match t {
                Token::Event(e) => {
                    operands.push(resolve(e).ok_or_else(|| PmoveError::UnmappedEvent {
                        pmu: "<resolver>".into(),
                        event: e.clone(),
                    })?)
                }
                Token::Const(c) => operands.push(*c),
                Token::Op(o) => ops.push(*o),
            }
        }
        // Second pass: collapse * and /.
        let mut values = vec![operands[0]];
        let mut add_ops = Vec::new();
        for (op, rhs) in ops.iter().zip(&operands[1..]) {
            match op {
                '*' => {
                    let top = values.last_mut().expect("non-empty");
                    *top *= rhs;
                }
                '/' => {
                    let top = values.last_mut().expect("non-empty");
                    *top /= rhs;
                }
                _ => {
                    add_ops.push(*op);
                    values.push(*rhs);
                }
            }
        }
        // Third pass: fold + and -.
        let mut acc = values[0];
        for (op, v) in add_ops.iter().zip(&values[1..]) {
            match op {
                '+' => acc += v,
                '-' => acc -= v,
                _ => unreachable!("filtered above"),
            }
        }
        Ok(acc)
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.tokens.iter().map(|t| t.to_string()).collect();
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let f = Formula::parse("MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES").unwrap();
        assert_eq!(f.tokens.len(), 3);
        assert_eq!(
            f.events(),
            vec!["MEM_INST_RETIRED:ALL_LOADS", "MEM_INST_RETIRED:ALL_STORES"]
        );
    }

    #[test]
    fn constants_parse() {
        let f = Formula::parse("FP_ARITH:512B_PACKED_DOUBLE * 8").unwrap();
        assert_eq!(f.tokens[2], Token::Const(8.0));
    }

    #[test]
    fn precedence_mul_before_add() {
        // a + b * 2 with a=10, b=3 → 16 (not 26).
        let f = Formula::parse("A + B * 2").unwrap();
        let v = f.eval(|e| Some(if e == "A" { 10.0 } else { 3.0 })).unwrap();
        assert_eq!(v, 16.0);
        // The live-CARM flops chain: s * 1 + x * 2 + y * 4 + z * 8.
        let f = Formula::parse("S * 1 + X * 2 + Y * 4 + Z * 8").unwrap();
        let v = f.eval(|_| Some(1.0)).unwrap();
        assert_eq!(v, 15.0);
    }

    #[test]
    fn subtraction_and_division() {
        let f = Formula::parse("A - B / 2").unwrap();
        let v = f.eval(|e| Some(if e == "A" { 10.0 } else { 4.0 })).unwrap();
        assert_eq!(v, 8.0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Formula::parse("").is_err());
        assert!(Formula::parse("A +").is_err());
        assert!(Formula::parse("A B").is_err()); // missing operator
        assert!(Formula::parse("A ** B").is_err());
    }

    #[test]
    fn unknown_event_fails_eval() {
        let f = Formula::parse("MYSTERY + 1").unwrap();
        assert!(f.eval(|_| None).is_err());
    }

    #[test]
    fn display_roundtrip() {
        let text = "A + B * 8";
        let f = Formula::parse(text).unwrap();
        assert_eq!(f.to_string(), text);
        assert_eq!(Formula::parse(&f.to_string()).unwrap(), f);
    }
}
