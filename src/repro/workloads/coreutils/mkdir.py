"""The ``mkdir`` workload: option parsing plus directory creation.

Bug: ``mkdir -m`` with no following mode operand dereferences the NULL entry
``argv[argc]`` inside ``parse_mode``.
"""

from __future__ import annotations

from typing import List

from repro.environment import Environment, simple_environment

SOURCE = r"""
/* mkdir: create directories, with -m MODE, -p and -v options. */

int parse_mode(char *text) {
    int mode = 0;
    int i = 0;
    /* BUG SITE: when text is NULL (missing -m operand) this dereference
     * crashes, the analogue of the segfault in the real utility. */
    while (text[i] != 0) {
        char c = text[i];
        if (c < '0') {
            return -1;
        }
        if (c > '7') {
            return -1;
        }
        mode = mode * 8 + (c - '0');
        i = i + 1;
    }
    return mode;
}

int create_parents(char *path, int mode) {
    char prefix[128];
    int i = 0;
    int status = 0;
    while (path[i] != 0) {
        if (path[i] == '/' && i > 0) {
            prefix[i] = 0;
            mkdir(prefix, mode);
        }
        prefix[i] = path[i];
        i = i + 1;
    }
    prefix[i] = 0;
    return status;
}

int make_directory(char *path, int mode, int parents, int verbose) {
    int result;
    if (parents == 1) {
        create_parents(path, mode);
    }
    result = mkdir(path, mode);
    if (result != 0) {
        if (parents == 1 && file_exists(path)) {
            return 0;
        }
        printf("mkdir: cannot create directory %s\n", path);
        return 1;
    }
    if (verbose == 1) {
        printf("mkdir: created directory %s\n", path);
    }
    return 0;
}

int main(int argc, char **argv) {
    int mode = 493;
    int parents = 0;
    int verbose = 0;
    int status = 0;
    int i = 1;
    if (argc < 2) {
        printf("mkdir: missing operand\n");
        return 1;
    }
    while (i < argc) {
        char *arg = argv[i];
        if (arg[0] == '-' && arg[1] != 0) {
            if (arg[1] == 'm') {
                mode = parse_mode(argv[i + 1]);
                if (mode < 0) {
                    printf("mkdir: invalid mode\n");
                    return 1;
                }
                i = i + 2;
                continue;
            }
            if (arg[1] == 'p') {
                parents = 1;
                i = i + 1;
                continue;
            }
            if (arg[1] == 'v') {
                verbose = 1;
                i = i + 1;
                continue;
            }
            printf("mkdir: invalid option %s\n", arg);
            return 2;
        }
        if (make_directory(arg, mode, parents, verbose) != 0) {
            status = 1;
        }
        i = i + 1;
    }
    return status;
}
"""


def bug_scenario() -> Environment:
    """``mkdir -p dir -m`` — the mode operand is missing, so parsing crashes."""

    return simple_environment(["mkdir", "-p", "somedir", "-m"], name="mkdir-bug")


def benign_scenario(paths: List[str] = ("alpha", "beta/gamma")) -> Environment:
    """A normal invocation creating a couple of directories."""

    argv = ["mkdir", "-p", "-v"] + list(paths)
    return simple_environment(argv, name="mkdir-ok")
