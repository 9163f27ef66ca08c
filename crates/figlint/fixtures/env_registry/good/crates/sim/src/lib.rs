pub fn kernel() -> Option<String> {
    std::env::var("FIGARO_KERNEL").ok()
}

pub fn documented() -> bool {
    std::env::var_os("FIGARO_SECRET").is_some()
}

pub fn parsed(env_var: impl Fn(&str) -> Option<String>) -> Option<String> {
    env_var("FIGARO_LOOKUP")
}
