//! Error type for resolver configuration and execution.

/// Errors surfaced by the entity-resolution framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The resolver was configured with no similarity functions.
    NoFunctions,
    /// The resolver was configured with no decision criteria.
    NoCriteria,
    /// A training fraction outside `[0, 1]`.
    InvalidTrainFraction(f64),
    /// Supervision referenced a document index outside the block.
    SupervisionOutOfRange {
        /// The offending document index.
        doc: usize,
        /// The block size.
        block_len: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NoFunctions => {
                write!(f, "resolver needs at least one similarity function")
            }
            CoreError::NoCriteria => {
                write!(f, "resolver needs at least one decision criterion")
            }
            CoreError::InvalidTrainFraction(x) => {
                write!(f, "training fraction must be in [0, 1], got {x}")
            }
            CoreError::SupervisionOutOfRange { doc, block_len } => {
                write!(
                    f,
                    "supervised document {doc} is outside the block (len {block_len})"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(CoreError::NoFunctions.to_string().contains("similarity"));
        assert!(CoreError::InvalidTrainFraction(1.5)
            .to_string()
            .contains("1.5"));
        let e = CoreError::SupervisionOutOfRange {
            doc: 9,
            block_len: 5,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(CoreError::NoCriteria);
        assert!(!e.to_string().is_empty());
    }
}
