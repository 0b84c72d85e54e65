//! Violates cfg-parse: the transactional method's body uses a shift
//! operator, which the analyzer's parser does not accept, so none of
//! the path-sensitive rules can check the method. Otherwise the method
//! follows the discipline (lock, then mutate, then log the inverse), so
//! the parse failure is the only finding.

use std::sync::Arc;

pub struct BadParseCounter {
    base: Arc<BaseCounter>,
    lock: TxMutex,
}

impl BadParseCounter {
    pub fn add_scaled(&self, txn: &Txn, delta: u64, shift: u32) -> TxResult<()> {
        self.lock.lock(txn)?;
        let scaled = delta << shift;
        self.base.add(scaled);
        let base = Arc::clone(&self.base);
        txn.log_undo(move || {
            base.sub(scaled);
        });
        Ok(())
    }
}
