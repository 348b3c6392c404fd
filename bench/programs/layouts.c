/* The Figure 4 Move/Packet struct kernel -- copied from examples/cross_architecture.py so the benchmark imports no private name. */
typedef struct { char from, to; double score; } Move;
typedef struct { char tag; void *payload; int len; } Packet;

Move *moves;
int nmoves;

double total_score(void) {
    double s = 0.0;
    int i;
    for (i = 0; i < nmoves; i++) s += moves[i].score;
    return s;
}

int main() {
    int i;
    scanf("%d", &nmoves);
    moves = (Move*) malloc(nmoves * sizeof(Move));
    for (i = 0; i < nmoves; i++) {
        moves[i].from = (char)i;
        moves[i].to = (char)(i + 1);
        moves[i].score = i * 0.5;
    }
    printf("total %.1f\n", total_score());
    return 0;
}
